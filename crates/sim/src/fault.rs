//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes *what* can go wrong and how often; a
//! [`FaultInjector`] turns the plan into concrete yes/no decisions drawn
//! from labeled [`SimRng`] sub-streams, one per
//! injection site. Because each site owns its own stream, adding or
//! removing one fault class never perturbs the draws of another — the
//! same seed and plan always produce the same fault schedule.
//!
//! The injector is pure decision logic: the components being faulted
//! (link, device, fetcher, doorbell path) query it at their injection
//! points and act on the answer. Every positive decision is counted in
//! [`FaultStats`] so runs can assert on exact fault counts.
//!
//! A plan with all probabilities at zero is *inert*: the injector draws
//! nothing from any stream, so zero-plan runs are bit-for-bit identical
//! to runs without the fault layer at all.

use crate::rng::SimRng;
use crate::stats::Counter;
use crate::time::Span;

/// Probabilities and magnitudes for every injectable fault class.
///
/// All fields default to "off"; compose a plan with the `with_*` builders
/// or read one from a plan file with `kus_scenario::fault::parse_plan`.
///
/// # Examples
///
/// ```
/// use kus_sim::fault::FaultPlan;
///
/// let plan = FaultPlan::none().with_stalls(0.01).with_dropped_completions(0.001);
/// assert!(plan.is_active());
/// assert!(plan.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability that a device request's service time is inflated.
    pub latency_spike_prob: f64,
    /// Maximum extra service time added by a spike; the actual inflation
    /// is drawn uniformly from `[spike/2, spike)` to model tail jitter
    /// rather than a single bimodal mode.
    pub latency_spike: Span,
    /// Probability that a parking fetcher's doorbell-request flag write is
    /// lost — the fetcher sleeps and the host never learns it must ring.
    pub stall_prob: f64,
    /// Probability that a served request's completion write is dropped.
    pub drop_completion_prob: f64,
    /// Probability that a served request's completion is written twice.
    pub dup_completion_prob: f64,
    /// Probability that a host doorbell MMIO write is lost on the way.
    pub drop_doorbell_prob: f64,
    /// Probability that a TLP is replayed (serialized twice) on the link,
    /// as after an LCRC error and ack-timeout.
    pub tlp_replay_prob: f64,
    /// Probability that a serving fiber crashes at dispatch: the request
    /// it held is re-queued and the fiber pays `fiber_respawn` before it
    /// can serve again.
    pub fiber_crash_prob: f64,
    /// Respawn cost a crashed fiber pays before rejoining the run ring.
    pub fiber_respawn: Span,
    /// Probability that the dispatcher stalls before handing a request to
    /// its service (e.g. a preempted dispatch thread).
    pub dispatcher_stall_prob: f64,
    /// Extra dispatch latency paid when a dispatcher stall fires.
    pub dispatcher_stall: Span,
    /// Period of deterministic core-freeze windows: window `k` covers
    /// `[k·period, k·period + freeze_len)` for `k = 1, 2, …` relative to
    /// the serving start. Zero disables freeze windows.
    pub freeze_period: Span,
    /// Length of each freeze window.
    pub freeze_len: Span,
    /// Extra per-dispatch overhead paid while inside a freeze window —
    /// models the core running at a crawl (thermal throttle, noisy
    /// neighbour) rather than stopping outright.
    pub freeze_stall: Span,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The inert plan: nothing ever goes wrong.
    pub fn none() -> FaultPlan {
        FaultPlan {
            latency_spike_prob: 0.0,
            latency_spike: Span::ZERO,
            stall_prob: 0.0,
            drop_completion_prob: 0.0,
            dup_completion_prob: 0.0,
            drop_doorbell_prob: 0.0,
            tlp_replay_prob: 0.0,
            fiber_crash_prob: 0.0,
            fiber_respawn: Span::ZERO,
            dispatcher_stall_prob: 0.0,
            dispatcher_stall: Span::ZERO,
            freeze_period: Span::ZERO,
            freeze_len: Span::ZERO,
            freeze_stall: Span::ZERO,
        }
    }

    /// True if any fault class can fire.
    pub fn is_active(&self) -> bool {
        self.latency_spike_prob > 0.0
            || self.stall_prob > 0.0
            || self.drop_completion_prob > 0.0
            || self.dup_completion_prob > 0.0
            || self.drop_doorbell_prob > 0.0
            || self.tlp_replay_prob > 0.0
            || self.serving_active()
    }

    /// True if any serving-layer fault class (fiber crash, dispatcher
    /// stall, freeze window) can fire.
    pub fn serving_active(&self) -> bool {
        self.fiber_crash_prob > 0.0
            || self.dispatcher_stall_prob > 0.0
            || !self.freeze_period.is_zero()
    }

    /// Checks that every probability lies in `[0, 1]` and that spike
    /// magnitude is set when spikes are enabled.
    pub fn validate(&self) -> Result<(), String> {
        let probs = [
            ("latency_spike_prob", self.latency_spike_prob),
            ("stall_prob", self.stall_prob),
            ("drop_completion_prob", self.drop_completion_prob),
            ("dup_completion_prob", self.dup_completion_prob),
            ("drop_doorbell_prob", self.drop_doorbell_prob),
            ("tlp_replay_prob", self.tlp_replay_prob),
            ("fiber_crash_prob", self.fiber_crash_prob),
            ("dispatcher_stall_prob", self.dispatcher_stall_prob),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} = {p} is outside [0, 1]"));
            }
        }
        if self.latency_spike_prob > 0.0 && self.latency_spike.is_zero() {
            return Err("latency_spike_prob > 0 but latency_spike_ns is zero".into());
        }
        if self.fiber_crash_prob > 0.0 && self.fiber_respawn.is_zero() {
            return Err("fiber_crash_prob > 0 but fiber_respawn_ns is zero".into());
        }
        if self.dispatcher_stall_prob > 0.0 && self.dispatcher_stall.is_zero() {
            return Err("dispatcher_stall_prob > 0 but dispatcher_stall_ns is zero".into());
        }
        let freeze_on = [self.freeze_period, self.freeze_len, self.freeze_stall];
        if freeze_on.iter().any(|s| !s.is_zero()) {
            if freeze_on.iter().any(|s| s.is_zero()) {
                return Err(
                    "freeze windows need all of freeze_period_ns, freeze_len_ns, freeze_stall_ns"
                        .into(),
                );
            }
            if self.freeze_len > self.freeze_period {
                return Err("freeze_len_ns exceeds freeze_period_ns".into());
            }
        }
        Ok(())
    }

    /// Enables latency spikes: with probability `p`, service time grows by
    /// a uniform draw from `[spike/2, spike)`.
    pub fn with_latency_spikes(mut self, p: f64, spike: Span) -> FaultPlan {
        self.latency_spike_prob = p;
        self.latency_spike = spike;
        self
    }

    /// Enables fetcher stalls (lost doorbell-request flag) with probability `p`.
    pub fn with_stalls(mut self, p: f64) -> FaultPlan {
        self.stall_prob = p;
        self
    }

    /// Enables dropped completions with probability `p`.
    pub fn with_dropped_completions(mut self, p: f64) -> FaultPlan {
        self.drop_completion_prob = p;
        self
    }

    /// Enables duplicated completions with probability `p`.
    pub fn with_dup_completions(mut self, p: f64) -> FaultPlan {
        self.dup_completion_prob = p;
        self
    }

    /// Enables lost doorbells with probability `p`.
    pub fn with_dropped_doorbells(mut self, p: f64) -> FaultPlan {
        self.drop_doorbell_prob = p;
        self
    }

    /// Enables TLP replays with probability `p`.
    pub fn with_tlp_replays(mut self, p: f64) -> FaultPlan {
        self.tlp_replay_prob = p;
        self
    }

    /// Enables serving-fiber crashes: with probability `p` per dispatch,
    /// the fiber dies, its request is re-queued, and the fiber pays
    /// `respawn` before serving again.
    pub fn with_fiber_crashes(mut self, p: f64, respawn: Span) -> FaultPlan {
        self.fiber_crash_prob = p;
        self.fiber_respawn = respawn;
        self
    }

    /// Enables dispatcher stalls: with probability `p` per dispatch, an
    /// extra `stall` of latency is paid before the service runs.
    pub fn with_dispatcher_stalls(mut self, p: f64, stall: Span) -> FaultPlan {
        self.dispatcher_stall_prob = p;
        self.dispatcher_stall = stall;
        self
    }

    /// Enables deterministic freeze windows: every `period` after serving
    /// starts, the core crawls for `len`, paying `stall` extra per
    /// dispatch inside the window.
    pub fn with_freeze_windows(mut self, period: Span, len: Span, stall: Span) -> FaultPlan {
        self.freeze_period = period;
        self.freeze_len = len;
        self.freeze_stall = stall;
        self
    }
}

/// Counts of every injected fault, by class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Latency spikes applied to device service times.
    pub latency_spikes: Counter,
    /// Fetcher stalls injected (doorbell-request flag writes lost).
    pub stalls: Counter,
    /// Completion writes dropped.
    pub dropped_completions: Counter,
    /// Completion writes duplicated.
    pub dup_completions: Counter,
    /// Host doorbells lost.
    pub dropped_doorbells: Counter,
    /// TLPs replayed on the link.
    pub tlp_replays: Counter,
    /// Serving fibers crashed at dispatch.
    pub fiber_crashes: Counter,
    /// Dispatcher stalls injected.
    pub dispatcher_stalls: Counter,
    /// Dispatches slowed by a freeze window.
    pub freeze_stalls: Counter,
}

/// Turns a [`FaultPlan`] into concrete per-site decisions.
///
/// Each injection site draws from its own labeled sub-stream of the
/// injector's root RNG, so the schedule of one fault class is independent
/// of how often the others are queried. Sites whose probability is zero
/// never draw at all, which keeps partially-enabled plans deterministic
/// with respect to the disabled classes.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    device_rng: SimRng,
    fetcher_rng: SimRng,
    completion_rng: SimRng,
    doorbell_rng: SimRng,
    link_rng: SimRng,
    crash_rng: SimRng,
    dispatch_rng: SimRng,
    /// Per-class injection counts, readable at harvest time.
    pub stats: FaultStats,
}

impl FaultInjector {
    /// Creates an injector for `plan`, splitting per-site streams off `rng`.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    pub fn new(plan: FaultPlan, rng: &SimRng) -> FaultInjector {
        plan.validate().expect("invalid fault plan");
        FaultInjector {
            plan,
            device_rng: rng.split("fault-device"),
            fetcher_rng: rng.split("fault-fetcher"),
            completion_rng: rng.split("fault-completion"),
            doorbell_rng: rng.split("fault-doorbell"),
            link_rng: rng.split("fault-link"),
            crash_rng: rng.split("fault-fiber-crash"),
            dispatch_rng: rng.split("fault-dispatcher"),
            stats: FaultStats::default(),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Service-time inflation for one device request, if this request
    /// spikes. The magnitude is uniform in `[spike/2, spike)`.
    pub fn latency_spike(&mut self) -> Option<Span> {
        if self.plan.latency_spike_prob <= 0.0 {
            return None;
        }
        if !self.device_rng.chance(self.plan.latency_spike_prob) {
            return None;
        }
        self.stats.latency_spikes.incr();
        let max_ps = self.plan.latency_spike.as_ps().max(2);
        let half = max_ps / 2;
        Some(Span::from_ps(half + self.device_rng.below(max_ps - half)))
    }

    /// True if this park's doorbell-request flag write should be lost.
    pub fn fetcher_stall(&mut self) -> bool {
        if self.plan.stall_prob <= 0.0 || !self.fetcher_rng.chance(self.plan.stall_prob) {
            return false;
        }
        self.stats.stalls.incr();
        true
    }

    /// True if this completion write should be dropped.
    pub fn drop_completion(&mut self) -> bool {
        if self.plan.drop_completion_prob <= 0.0
            || !self.completion_rng.chance(self.plan.drop_completion_prob)
        {
            return false;
        }
        self.stats.dropped_completions.incr();
        true
    }

    /// True if this completion write should be duplicated.
    pub fn dup_completion(&mut self) -> bool {
        if self.plan.dup_completion_prob <= 0.0
            || !self.completion_rng.chance(self.plan.dup_completion_prob)
        {
            return false;
        }
        self.stats.dup_completions.incr();
        true
    }

    /// True if this host doorbell should be lost.
    pub fn drop_doorbell(&mut self) -> bool {
        if self.plan.drop_doorbell_prob <= 0.0
            || !self.doorbell_rng.chance(self.plan.drop_doorbell_prob)
        {
            return false;
        }
        self.stats.dropped_doorbells.incr();
        true
    }

    /// True if this TLP should be replayed (serialized a second time).
    pub fn tlp_replay(&mut self) -> bool {
        if self.plan.tlp_replay_prob <= 0.0 || !self.link_rng.chance(self.plan.tlp_replay_prob) {
            return false;
        }
        self.stats.tlp_replays.incr();
        true
    }

    /// Respawn cost if this dispatch's fiber crashes, else `None`.
    pub fn fiber_crash(&mut self) -> Option<Span> {
        if self.plan.fiber_crash_prob <= 0.0 || !self.crash_rng.chance(self.plan.fiber_crash_prob) {
            return None;
        }
        self.stats.fiber_crashes.incr();
        Some(self.plan.fiber_respawn)
    }

    /// Extra dispatch latency if the dispatcher stalls here, else `None`.
    pub fn dispatcher_stall(&mut self) -> Option<Span> {
        if self.plan.dispatcher_stall_prob <= 0.0
            || !self.dispatch_rng.chance(self.plan.dispatcher_stall_prob)
        {
            return None;
        }
        self.stats.dispatcher_stalls.incr();
        Some(self.plan.dispatcher_stall)
    }

    /// Extra per-dispatch overhead if `since_start` falls inside a freeze
    /// window, else `None`. Freeze windows are purely deterministic —
    /// window `k` covers `[k·period, k·period + len)` for `k ≥ 1` — so no
    /// RNG stream is consumed.
    pub fn freeze_overhead(&mut self, since_start: Span) -> Option<Span> {
        self.freeze_window(since_start)?;
        self.stats.freeze_stalls.incr();
        Some(self.plan.freeze_stall)
    }

    /// The index of the freeze window covering `since_start`, if any
    /// (`1` for the first window). Does not count as an injection.
    pub fn freeze_window(&self, since_start: Span) -> Option<u64> {
        let period = self.plan.freeze_period.as_ps();
        if period == 0 {
            return None;
        }
        let k = since_start.as_ps() / period;
        let into = since_start.as_ps() - k * period;
        (k >= 1 && into < self.plan.freeze_len.as_ps()).then_some(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaotic_plan() -> FaultPlan {
        FaultPlan::none()
            .with_latency_spikes(0.3, Span::from_us(2))
            .with_stalls(0.2)
            .with_dropped_completions(0.2)
            .with_dup_completions(0.2)
            .with_dropped_doorbells(0.2)
            .with_tlp_replays(0.2)
    }

    #[test]
    fn none_is_inactive_and_valid() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn builders_activate() {
        assert!(FaultPlan::none().with_stalls(0.5).is_active());
        assert!(FaultPlan::none().with_tlp_replays(1e-9).is_active());
    }

    #[test]
    fn validate_rejects_out_of_range() {
        assert!(FaultPlan::none().with_stalls(1.5).validate().is_err());
        assert!(FaultPlan::none().with_dup_completions(-0.1).validate().is_err());
        // Spikes enabled without a magnitude make no sense.
        let p = FaultPlan { latency_spike_prob: 0.1, ..FaultPlan::none() };
        assert!(p.validate().is_err());
    }

    #[test]
    fn same_seed_same_schedule() {
        let plan = chaotic_plan();
        let root = SimRng::from_seed(77);
        let mut a = FaultInjector::new(plan, &root);
        let mut b = FaultInjector::new(plan, &root);
        for _ in 0..500 {
            assert_eq!(a.latency_spike(), b.latency_spike());
            assert_eq!(a.fetcher_stall(), b.fetcher_stall());
            assert_eq!(a.drop_completion(), b.drop_completion());
            assert_eq!(a.dup_completion(), b.dup_completion());
            assert_eq!(a.drop_doorbell(), b.drop_doorbell());
            assert_eq!(a.tlp_replay(), b.tlp_replay());
        }
        assert_eq!(a.stats, b.stats);
        assert!(a.stats.latency_spikes.get() > 0, "plan actually fired");
    }

    #[test]
    fn sites_are_independent_streams() {
        let plan = chaotic_plan();
        let root = SimRng::from_seed(42);
        // Injector A queries only stalls; injector B interleaves every class.
        let mut a = FaultInjector::new(plan, &root);
        let mut b = FaultInjector::new(plan, &root);
        let mut stalls_a = Vec::new();
        for _ in 0..200 {
            stalls_a.push(a.fetcher_stall());
        }
        let mut stalls_b = Vec::new();
        for _ in 0..200 {
            let _ = b.latency_spike();
            let _ = b.drop_completion();
            stalls_b.push(b.fetcher_stall());
            let _ = b.tlp_replay();
        }
        assert_eq!(stalls_a, stalls_b, "stall stream unaffected by other sites");
    }

    #[test]
    fn zero_probability_class_never_draws() {
        // Only stalls enabled: the stall stream must match a plan where
        // every other class is also enabled but never queried.
        let stall_only = FaultPlan::none().with_stalls(0.5);
        let root = SimRng::from_seed(9);
        let mut inj = FaultInjector::new(stall_only, &root);
        // Query disabled classes heavily; they must not consume anything.
        for _ in 0..100 {
            assert_eq!(inj.latency_spike(), None);
            assert!(!inj.drop_completion());
            assert!(!inj.tlp_replay());
        }
        let mut fresh = FaultInjector::new(stall_only, &root);
        for _ in 0..100 {
            assert_eq!(inj.fetcher_stall(), fresh.fetcher_stall());
        }
        assert_eq!(inj.stats.dropped_completions.get(), 0);
    }

    #[test]
    fn spike_magnitude_is_tail_jitter() {
        let plan = FaultPlan::none().with_latency_spikes(1.0, Span::from_us(2));
        let mut inj = FaultInjector::new(plan, &SimRng::from_seed(3));
        for _ in 0..200 {
            let s = inj.latency_spike().expect("p=1 always spikes");
            assert!(s >= Span::from_us(1) && s < Span::from_us(2), "{s:?}");
        }
    }

    #[test]
    fn serving_classes_validate() {
        // Probabilities without magnitudes are rejected.
        let p = FaultPlan { fiber_crash_prob: 0.1, ..FaultPlan::none() };
        assert!(p.validate().is_err());
        let p = FaultPlan { dispatcher_stall_prob: 0.1, ..FaultPlan::none() };
        assert!(p.validate().is_err());
        // Freeze fields are all-or-nothing, with len bounded by period.
        let p = FaultPlan { freeze_period: Span::from_us(500), ..FaultPlan::none() };
        assert!(p.validate().is_err());
        let p = FaultPlan::none().with_freeze_windows(
            Span::from_us(100),
            Span::from_us(200),
            Span::from_us(5),
        );
        assert!(p.validate().is_err(), "len > period");
        let ok = FaultPlan::none()
            .with_fiber_crashes(0.01, Span::from_us(50))
            .with_dispatcher_stalls(0.02, Span::from_us(10))
            .with_freeze_windows(Span::from_us(500), Span::from_us(100), Span::from_us(20));
        assert!(ok.validate().is_ok());
        assert!(ok.is_active() && ok.serving_active());
    }

    #[test]
    fn freeze_windows_are_deterministic_and_skip_warmup() {
        let plan =
            FaultPlan::none().with_freeze_windows(Span::from_us(500), Span::from_us(100), Span::from_us(20));
        let mut inj = FaultInjector::new(plan, &SimRng::from_seed(1));
        // Window 0 (warmup) never freezes.
        assert_eq!(inj.freeze_window(Span::from_us(50)), None);
        assert_eq!(inj.freeze_window(Span::from_us(499)), None);
        // Window 1: [500, 600) µs.
        assert_eq!(inj.freeze_window(Span::from_us(500)), Some(1));
        assert_eq!(inj.freeze_window(Span::from_us(599)), Some(1));
        assert_eq!(inj.freeze_window(Span::from_us(600)), None);
        assert_eq!(inj.freeze_window(Span::from_us(1001)), Some(2));
        assert_eq!(inj.freeze_overhead(Span::from_us(550)), Some(Span::from_us(20)));
        assert_eq!(inj.freeze_overhead(Span::from_us(650)), None);
        assert_eq!(inj.stats.freeze_stalls.get(), 1);
    }

    #[test]
    fn serving_sites_are_independent_streams() {
        let plan = chaotic_plan()
            .with_fiber_crashes(0.2, Span::from_us(50))
            .with_dispatcher_stalls(0.2, Span::from_us(10));
        let root = SimRng::from_seed(13);
        let mut a = FaultInjector::new(plan, &root);
        let mut b = FaultInjector::new(plan, &root);
        let crashes_a: Vec<_> = (0..200).map(|_| a.fiber_crash()).collect();
        let crashes_b: Vec<_> = (0..200)
            .map(|_| {
                let _ = b.latency_spike();
                let _ = b.dispatcher_stall();
                b.fiber_crash()
            })
            .collect();
        assert_eq!(crashes_a, crashes_b, "crash stream unaffected by other sites");
        assert!(a.stats.fiber_crashes.get() > 0);
    }
}
