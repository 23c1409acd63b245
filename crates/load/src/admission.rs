//! Admission control: who gets into the queue, who gets dispatched, and
//! who gets shed — the serving layer's overload-control policy.
//!
//! The dispatcher consults an [`AdmissionPolicy`] at three points:
//!
//! 1. **Arrival** ([`on_arrival`](AdmissionPolicy::on_arrival)): admit the
//!    request into the bounded queue or shed it immediately.
//! 2. **Dispatch gate** ([`allow_dispatch`](AdmissionPolicy::allow_dispatch)):
//!    may a worker pop the queue right now, given the requests in flight?
//! 3. **Dispatch** ([`on_dispatch`](AdmissionPolicy::on_dispatch)): the
//!    popped request's queue wait is known — serve it or shed it late
//!    (better to drop a doomed request than to burn service capacity on
//!    an answer nobody is waiting for).
//!
//! Policies are *pure functions of sim-observable state* — they draw no
//! randomness — so an overload run stays bit-reproducible and the
//! [`Static`] policy reproduces the pre-policy bounded queue exactly.
//!
//! Three implementations, configured via [`AdmissionControl`]:
//!
//! - [`Static`]: the classic bounded queue. Shed on overflow, serve
//!   everything admitted, however stale.
//! - [`DeadlineAware`]: CoDel-style sojourn control. While the queue wait
//!   of dispatched requests stays above `target` for a full `interval`,
//!   drop heads at dispatch time, halving the drop interval each time
//!   (`interval >> count`) until the wait dips back under target.
//! - [`AdaptiveConcurrency`]: AIMD concurrency limiting. A window of
//!   completions whose worst sojourn beats the SLO p99 grows the in-flight
//!   limit by one; a window that violates it halves the limit.

use kus_sim::{EventName, Span, Time};

use crate::report::SloSpec;

/// Why a request was shed. Each cause maps to a distinct trace-event name
/// so [`LoadReport`](crate::report::LoadReport) can break shed totals down
/// per cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedCause {
    /// The bounded admission queue was full at arrival.
    QueueFull,
    /// The request's queue wait exceeded its deadline budget; shed at
    /// dispatch time (CoDel head drop).
    DeadlineExceeded,
    /// The admission policy rejected the arrival to protect the in-flight
    /// limit.
    AdmissionRejected,
}

impl ShedCause {
    /// The trace-event name this cause stamps. `QueueFull` keeps the
    /// pre-policy name `load.shed` so a Static run's trace is
    /// bit-identical to the old hard-coded queue.
    pub fn event_name(self) -> EventName {
        match self {
            ShedCause::QueueFull => EventName::LoadShed,
            ShedCause::DeadlineExceeded => EventName::LoadShedDeadline,
            ShedCause::AdmissionRejected => EventName::LoadShedAdmission,
        }
    }
}

/// An arrival-time admission decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Enqueue the request.
    Admit,
    /// Shed it, stamped with the given cause.
    Shed(ShedCause),
}

/// The dispatcher-facing policy interface. All hooks default to the
/// permissive behaviour so a policy only overrides the control points it
/// cares about.
pub trait AdmissionPolicy: std::fmt::Debug {
    /// Admit or shed an arrival, given the queue depth and capacity.
    fn on_arrival(
        &mut self,
        now: Time,
        arrival: Time,
        queue_len: usize,
        capacity: usize,
    ) -> AdmissionDecision;

    /// May a worker dispatch right now, with `in_flight` requests being
    /// served? Returning `false` leaves the queue untouched; the worker
    /// goes idle and in-flight completions re-open the gate.
    fn allow_dispatch(&mut self, in_flight: usize) -> bool {
        let _ = in_flight;
        true
    }

    /// Called with the popped request's arrival time just before serving.
    /// Returning a cause sheds the request instead (the worker pops the
    /// next one).
    fn on_dispatch(&mut self, now: Time, arrival: Time) -> Option<ShedCause> {
        let _ = (now, arrival);
        None
    }

    /// Called when a served request completes, with its arrival→completion
    /// sojourn.
    fn on_complete(&mut self, now: Time, sojourn: Span) {
        let _ = (now, sojourn);
    }
}

/// Serializable policy configuration — the [`LoadSpec`](crate::LoadSpec)
/// knob that [`build`](AdmissionControl::build)s the live policy each
/// phase (policies are stateful; record and replay phases each get a
/// fresh one).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum AdmissionControl {
    /// Bounded queue, shed on overflow, serve everything admitted.
    #[default]
    Static,
    /// CoDel-style head dropping: shed at dispatch while queue waits stay
    /// above `target` past `interval`, halving the interval per drop.
    DeadlineAware {
        /// Acceptable standing queue wait.
        target: Span,
        /// How long waits may exceed `target` before dropping starts.
        interval: Span,
    },
    /// AIMD in-flight limit: start at `initial`, halve on an SLO-violating
    /// window of `window` completions, grow by one on a compliant window,
    /// never exceed `max`.
    AdaptiveConcurrency {
        /// Initial in-flight limit.
        initial: usize,
        /// Upper bound on the limit.
        max: usize,
        /// Completions per adaptation window.
        window: usize,
    },
}

impl AdmissionControl {
    /// Human-readable policy label for sweep cells and reports.
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionControl::Static => "static",
            AdmissionControl::DeadlineAware { .. } => "deadline",
            AdmissionControl::AdaptiveConcurrency { .. } => "adaptive",
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            AdmissionControl::Static => Ok(()),
            AdmissionControl::DeadlineAware { target, interval } => {
                if target.is_zero() || interval.is_zero() {
                    return Err("deadline-aware admission needs nonzero target and interval".into());
                }
                Ok(())
            }
            AdmissionControl::AdaptiveConcurrency { initial, max, window } => {
                if initial == 0 || max == 0 || window == 0 {
                    return Err(
                        "adaptive-concurrency admission needs nonzero initial, max, window".into(),
                    );
                }
                if initial > max {
                    return Err("adaptive-concurrency initial limit exceeds max".into());
                }
                Ok(())
            }
        }
    }

    /// Builds a fresh policy instance for one serving phase. The SLO's p99
    /// bound (when set) is the AIMD violation threshold; without one,
    /// [`DEFAULT_SLO_P99`] applies.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`validate`](Self::validate).
    pub fn build(&self, slo: &SloSpec) -> Box<dyn AdmissionPolicy> {
        self.validate().expect("invalid admission control");
        match *self {
            AdmissionControl::Static => Box::new(Static),
            AdmissionControl::DeadlineAware { target, interval } => {
                Box::new(DeadlineAware::new(target, interval))
            }
            AdmissionControl::AdaptiveConcurrency { initial, max, window } => Box::new(
                AdaptiveConcurrency::new(initial, max, window, slo.p99.unwrap_or(DEFAULT_SLO_P99)),
            ),
        }
    }
}

/// AIMD violation threshold when the spec carries no p99 SLO.
pub const DEFAULT_SLO_P99: Span = Span::from_us(100);

/// The classic bounded queue (pre-policy behaviour, bit-for-bit).
#[derive(Debug, Clone, Copy, Default)]
pub struct Static;

impl AdmissionPolicy for Static {
    fn on_arrival(
        &mut self,
        _now: Time,
        _arrival: Time,
        queue_len: usize,
        capacity: usize,
    ) -> AdmissionDecision {
        if queue_len < capacity {
            AdmissionDecision::Admit
        } else {
            AdmissionDecision::Shed(ShedCause::QueueFull)
        }
    }
}

/// CoDel-style dispatch-time head dropping.
#[derive(Debug)]
pub struct DeadlineAware {
    target: Span,
    interval: Span,
    /// When the current above-target excursion, if sustained, starts
    /// dropping.
    first_above: Option<Time>,
    /// Consecutive drops in the current excursion; the drop interval is
    /// `interval >> min(count, 16)`.
    count: u32,
}

impl DeadlineAware {
    /// Creates the policy with a sojourn `target` and initial drop
    /// `interval`.
    pub fn new(target: Span, interval: Span) -> DeadlineAware {
        DeadlineAware { target, interval, first_above: None, count: 0 }
    }
}

impl AdmissionPolicy for DeadlineAware {
    fn on_arrival(
        &mut self,
        _now: Time,
        _arrival: Time,
        queue_len: usize,
        capacity: usize,
    ) -> AdmissionDecision {
        if queue_len < capacity {
            AdmissionDecision::Admit
        } else {
            AdmissionDecision::Shed(ShedCause::QueueFull)
        }
    }

    fn on_dispatch(&mut self, now: Time, arrival: Time) -> Option<ShedCause> {
        let wait = now.saturating_since(arrival);
        if wait < self.target {
            // Excursion over: re-arm.
            self.first_above = None;
            self.count = 0;
            return None;
        }
        match self.first_above {
            None => {
                self.first_above = Some(now + self.interval);
                None
            }
            Some(deadline) if now >= deadline => {
                // Sustained overload: drop this head and tighten the next
                // drop deadline (CoDel's control law, interval-halving in
                // place of the 1/sqrt(count) schedule).
                self.count = (self.count + 1).min(16);
                let next = Span::from_ps((self.interval.as_ps() >> self.count).max(1));
                self.first_above = Some(now + next);
                Some(ShedCause::DeadlineExceeded)
            }
            Some(_) => None,
        }
    }
}

/// AIMD in-flight concurrency limiting.
#[derive(Debug)]
pub struct AdaptiveConcurrency {
    limit: usize,
    max: usize,
    window: usize,
    slo_p99: Span,
    /// Completions seen in the current window.
    seen: usize,
    /// Worst sojourn in the current window.
    worst: Span,
}

impl AdaptiveConcurrency {
    /// Creates the policy with an `initial` limit, an upper bound `max`,
    /// an adaptation `window` (completions), and the sojourn bound that
    /// counts as a violation.
    pub fn new(initial: usize, max: usize, window: usize, slo_p99: Span) -> AdaptiveConcurrency {
        AdaptiveConcurrency { limit: initial, max, window, slo_p99, seen: 0, worst: Span::ZERO }
    }

    /// The current in-flight limit.
    pub fn limit(&self) -> usize {
        self.limit
    }
}

impl AdmissionPolicy for AdaptiveConcurrency {
    fn on_arrival(
        &mut self,
        _now: Time,
        _arrival: Time,
        queue_len: usize,
        capacity: usize,
    ) -> AdmissionDecision {
        if queue_len < capacity {
            AdmissionDecision::Admit
        } else {
            // The queue backs up because the limit gates dispatch: the
            // overflow is the policy's own doing, not raw queue pressure.
            AdmissionDecision::Shed(ShedCause::AdmissionRejected)
        }
    }

    fn allow_dispatch(&mut self, in_flight: usize) -> bool {
        in_flight < self.limit
    }

    fn on_complete(&mut self, _now: Time, sojourn: Span) {
        self.worst = self.worst.max(sojourn);
        self.seen += 1;
        if self.seen < self.window {
            return;
        }
        if self.worst > self.slo_p99 {
            // Multiplicative decrease: the window violated the SLO.
            self.limit = (self.limit / 2).max(1);
        } else {
            // Additive increase: probe for more concurrency.
            self.limit = (self.limit + 1).min(self.max);
        }
        self.seen = 0;
        self.worst = Span::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> Time {
        Time::ZERO + Span::from_us(us)
    }

    #[test]
    fn static_is_the_bounded_queue() {
        let mut p = Static;
        assert_eq!(p.on_arrival(t(0), t(0), 3, 4), AdmissionDecision::Admit);
        assert_eq!(
            p.on_arrival(t(0), t(0), 4, 4),
            AdmissionDecision::Shed(ShedCause::QueueFull)
        );
        assert!(p.allow_dispatch(10_000), "static never gates");
        assert_eq!(p.on_dispatch(t(9), t(0)), None, "static never head-drops");
    }

    #[test]
    fn deadline_aware_drops_after_sustained_excursion() {
        let mut p = DeadlineAware::new(Span::from_us(10), Span::from_us(100));
        // Waits below target never drop.
        assert_eq!(p.on_dispatch(t(5), t(0)), None);
        // First above-target dispatch arms the interval, no drop yet.
        assert_eq!(p.on_dispatch(t(20), t(0)), None);
        // Still inside the interval: no drop.
        assert_eq!(p.on_dispatch(t(60), t(0)), None);
        // Past the interval with wait still above target: drop.
        assert_eq!(p.on_dispatch(t(121), t(0)), Some(ShedCause::DeadlineExceeded));
        // The next drop deadline halves: 50 µs later it fires again.
        assert_eq!(p.on_dispatch(t(130), t(100)), None, "inside halved interval");
        assert_eq!(p.on_dispatch(t(172), t(100)), Some(ShedCause::DeadlineExceeded));
        // A below-target dispatch re-arms everything.
        assert_eq!(p.on_dispatch(t(180), t(179)), None);
        assert_eq!(p.on_dispatch(t(200), t(100)), None, "fresh excursion, no drop");
    }

    #[test]
    fn adaptive_concurrency_aimd() {
        let mut p = AdaptiveConcurrency::new(4, 8, 2, Span::from_us(50));
        assert!(p.allow_dispatch(3));
        assert!(!p.allow_dispatch(4), "at the limit");
        // A violating window halves the limit.
        p.on_complete(t(1), Span::from_us(10));
        p.on_complete(t(2), Span::from_us(80));
        assert_eq!(p.limit(), 2);
        // Compliant windows grow it back one at a time, capped at max.
        for _ in 0..20 {
            p.on_complete(t(3), Span::from_us(1));
            p.on_complete(t(3), Span::from_us(1));
        }
        assert_eq!(p.limit(), 8, "capped at max");
        // The limit never collapses below one.
        for _ in 0..10 {
            p.on_complete(t(4), Span::from_us(500));
            p.on_complete(t(4), Span::from_us(500));
        }
        assert_eq!(p.limit(), 1);
        assert!(p.allow_dispatch(0), "limit 1 still serves");
    }

    #[test]
    fn control_validation() {
        assert!(AdmissionControl::Static.validate().is_ok());
        let bad = AdmissionControl::DeadlineAware { target: Span::ZERO, interval: Span::from_us(1) };
        assert!(bad.validate().is_err());
        let bad = AdmissionControl::AdaptiveConcurrency { initial: 9, max: 8, window: 1 };
        assert!(bad.validate().is_err());
        let ok = AdmissionControl::AdaptiveConcurrency { initial: 4, max: 8, window: 16 };
        assert!(ok.validate().is_ok());
        assert_eq!(ok.label(), "adaptive");
    }

    #[test]
    fn shed_causes_map_to_event_names() {
        assert_eq!(ShedCause::QueueFull.event_name(), EventName::LoadShed);
        assert_eq!(ShedCause::DeadlineExceeded.event_name(), EventName::LoadShedDeadline);
        assert_eq!(ShedCause::AdmissionRejected.event_name(), EventName::LoadShedAdmission);
    }
}
