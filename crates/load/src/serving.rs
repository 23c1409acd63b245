//! The serving loop: a [`Workload`] that admits arriving requests into a
//! bounded queue and serves them on fibers across every core.
//!
//! # Dispatch model
//!
//! The open-loop arrival trace is materialized at build time
//! ([`ArrivalProcess::offsets`]), so admission can be evaluated *lazily*
//! and still be exact: whenever a worker fiber looks for work at time
//! `now`, it first catches the shared cursor up over all arrivals with
//! `t_arrival ≤ now`, admitting each into the bounded queue (or shedding
//! it, stamped with its true arrival time) in arrival order. Queue
//! occupancy only changes at arrivals (+1) and dispatches (−1), and every
//! dispatch performs the catch-up first, so the reconstructed admission
//! decisions are identical to an eagerly-simulated admission loop — with
//! no generator fiber perturbing the cores under test.
//!
//! Idle workers sleep until the next arrival instant
//! ([`MemCtx::sleep_until`]); the first to wake takes the request, the
//! rest re-arm. Closed-loop mode skips the queue entirely: each fiber is
//! one user cycling think → request → response.
//!
//! # Overload control
//!
//! Both admission and dispatch consult the spec's
//! [`AdmissionControl`](crate::admission::AdmissionControl) policy
//! (arrival shedding, in-flight gating, dispatch-time head drops), and
//! closed-loop users run the spec's [`RetryPolicy`] (client timeouts,
//! budgeted retries with jittered exponential backoff, optional hedging).
//! The spec can also carry a serving-layer [`FaultPlan`]: fiber
//! crash-and-respawn, dispatcher stalls, and deterministic freeze windows
//! apply to the open-loop dispatch path, drawn from the workload's own
//! labeled RNG streams so chaos stays bit-reproducible. With the default
//! `Static` policy, inert retry policy, and empty fault plan, this loop
//! is bit-for-bit the pre-policy bounded queue.
//!
//! Every request leaves trace events on [`Category::Load`]
//! (`load.dispatch`, `load.complete`, with the true arrival time in `a1`;
//! `load.shed`/`load.shed.deadline`/`load.shed.admission` per shed cause;
//! `load.retry`/`load.timeout`/`load.hedge` from the client; `load.crash`
//! and `load.stall` from serving faults; `load.window.start`/`.end`
//! bracketing freeze windows), from which
//! [`LoadReport::from_run`](crate::report::LoadReport::from_run)
//! reconstructs the full latency decomposition and recovery timeline.
//!
//! [`Category::Load`]: kus_sim::trace::Category

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use kus_core::prelude::{
    ConfigError, Dataset, Experiment, FiberFuture, MemCtx, PlatformConfig, Workload,
};
use kus_net::{NetConfig, NetTimeline};
use kus_sim::fault::{FaultInjector, FaultPlan};
use kus_sim::rng::SimRng;
use kus_sim::{Span, Time, TraceClass};

use crate::admission::{AdmissionControl, AdmissionDecision, AdmissionPolicy};
use crate::arrival::ArrivalProcess;
use crate::report::SloSpec;
use crate::retry::{HedgeWindow, RetryPolicy};
use crate::service::{Service, ServiceFactory, SharedService};
use crate::tier::{TierSpec, TieredService};

/// A complete serving scenario: how requests arrive, how many, how much
/// queueing the system tolerates, what the SLO demands, and how the
/// system behaves under overload (admission policy, client retries,
/// serving-layer faults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSpec {
    /// The arrival process.
    pub arrival: ArrivalProcess,
    /// Open loop: total requests in the trace. Closed loop: requests per
    /// user.
    pub requests: usize,
    /// Bounded admission queue capacity; arrivals beyond it are shed.
    pub queue_capacity: usize,
    /// Host software charged per dispatched request (queue pop, bookkeeping).
    pub dispatch_overhead: Span,
    /// The service-level objective the report is judged against.
    pub slo: SloSpec,
    /// Admission/overload-control policy (default [`Static`]).
    ///
    /// [`Static`]: crate::admission::AdmissionControl::Static
    pub admission: AdmissionControl,
    /// Client-side retry policy for closed-loop users (default inert).
    pub retry: RetryPolicy,
    /// Serving-layer fault plan (fiber crashes, dispatcher stalls, freeze
    /// windows — the device-level classes in this plan are ignored here;
    /// route those through `PlatformConfig::faults`).
    pub faults: FaultPlan,
    /// Modelled NIC front end (default **off**: requests materialize at
    /// the dispatcher exactly as before).
    pub net: NetConfig,
    /// Tier-chain topology over the service (default single-tier direct).
    pub tiers: TierSpec,
}

impl LoadSpec {
    /// A spec with `arrival`, 1000 requests, a 64-deep admission queue,
    /// 50 ns of dispatch software, no SLO, static admission, no retries,
    /// and no faults.
    pub fn new(arrival: ArrivalProcess) -> LoadSpec {
        LoadSpec {
            arrival,
            requests: 1000,
            queue_capacity: 64,
            dispatch_overhead: Span::from_ns(50),
            slo: SloSpec::default(),
            admission: AdmissionControl::Static,
            retry: RetryPolicy::none(),
            faults: FaultPlan::none(),
            net: NetConfig::default(),
            tiers: TierSpec::default(),
        }
    }

    /// Sets the request count (total for open loop, per-user for closed).
    pub fn requests(mut self, n: usize) -> LoadSpec {
        self.requests = n;
        self
    }

    /// Sets the admission-queue capacity.
    pub fn queue_capacity(mut self, n: usize) -> LoadSpec {
        self.queue_capacity = n;
        self
    }

    /// Sets the per-dispatch host-software overhead.
    pub fn dispatch_overhead(mut self, span: Span) -> LoadSpec {
        self.dispatch_overhead = span;
        self
    }

    /// Sets the SLO.
    pub fn slo(mut self, slo: SloSpec) -> LoadSpec {
        self.slo = slo;
        self
    }

    /// Sets the admission-control policy.
    pub fn admission(mut self, policy: AdmissionControl) -> LoadSpec {
        self.admission = policy;
        self
    }

    /// Sets the client retry policy (closed-loop users).
    pub fn retry(mut self, retry: RetryPolicy) -> LoadSpec {
        self.retry = retry;
        self
    }

    /// Sets the serving-layer fault plan.
    pub fn faults(mut self, plan: FaultPlan) -> LoadSpec {
        self.faults = plan;
        self
    }

    /// Sets the modelled NIC front-end configuration.
    pub fn net(mut self, net: NetConfig) -> LoadSpec {
        self.net = net;
        self
    }

    /// Sets the tier-chain topology.
    pub fn tiers(mut self, tiers: TierSpec) -> LoadSpec {
        self.tiers = tiers;
        self
    }

    /// Validates the whole spec (arrival, queue, policy, retry, fault
    /// plan, NIC front end, tier chain).
    pub fn validate(&self) -> Result<(), String> {
        self.arrival.validate()?;
        if self.queue_capacity == 0 {
            return Err("queue capacity must be at least 1".into());
        }
        self.admission.validate()?;
        self.retry.validate()?;
        self.faults.validate()?;
        self.net.validate()?;
        self.tiers.validate()?;
        if self.net.enabled && !self.arrival.is_open_loop() {
            return Err("the NIC front end models open-loop wire arrivals; \
                 it cannot be combined with a closed-loop arrival process"
                .into());
        }
        Ok(())
    }
}

/// Shared open-loop dispatcher state (one per run, reset per phase).
struct LoadRuntime {
    /// Clock value at the first worker poll of the phase; arrival offsets
    /// are relative to it.
    t0: Cell<Option<Time>>,
    /// Next un-admitted index into the arrival trace.
    next_arrival: Cell<usize>,
    /// Next arrival index no idle worker has claimed a wake-up for yet.
    /// Each idle worker sleeps until a *distinct* future arrival, so an
    /// arrival wakes exactly one worker instead of the whole pool (a
    /// thundering herd would bill every request for the idle workers'
    /// context switches).
    next_claim: Cell<usize>,
    /// Admitted `(request id, absolute arrival time)` pairs, FCFS.
    queue: RefCell<VecDeque<(u64, Time)>>,
    /// Arrivals shed, all causes.
    shed: Cell<u64>,
    /// Requests currently being served (dispatched, not yet completed).
    in_flight: Cell<usize>,
    /// The live admission policy, rebuilt from the spec each phase.
    policy: RefCell<Box<dyn AdmissionPolicy>>,
    /// Serving-layer fault injector, rebuilt each phase (None when the
    /// plan has no serving classes — inert plans draw nothing).
    injector: RefCell<Option<FaultInjector>>,
    /// Closed-loop first attempts issued (retry-budget denominator).
    issued: Cell<u64>,
    /// Closed-loop retries issued (retry-budget numerator).
    retries: Cell<u64>,
    /// Freeze windows whose `load.window.start` marker has been emitted.
    windows_started: Cell<u64>,
    /// Freeze windows whose `load.window.end` marker has been emitted.
    windows_ended: Cell<u64>,
}

impl LoadRuntime {
    fn new() -> LoadRuntime {
        LoadRuntime {
            t0: Cell::new(None),
            next_arrival: Cell::new(0),
            next_claim: Cell::new(0),
            queue: RefCell::new(VecDeque::new()),
            shed: Cell::new(0),
            in_flight: Cell::new(0),
            policy: RefCell::new(Box::new(crate::admission::Static)),
            injector: RefCell::new(None),
            issued: Cell::new(0),
            retries: Cell::new(0),
            windows_started: Cell::new(0),
            windows_ended: Cell::new(0),
        }
    }

    /// Restarts all dispatcher state for a new phase: fresh policy, fresh
    /// injector (same seed → same fault schedule in both record and
    /// measured phases), zeroed counters.
    fn reset(&self, spec: &LoadSpec, fault_seed: u64) {
        self.t0.set(None);
        self.next_arrival.set(0);
        self.next_claim.set(0);
        self.queue.borrow_mut().clear();
        self.shed.set(0);
        self.in_flight.set(0);
        *self.policy.borrow_mut() = spec.admission.build(&spec.slo);
        *self.injector.borrow_mut() = spec
            .faults
            .serving_active()
            .then(|| FaultInjector::new(spec.faults, &SimRng::from_seed(fault_seed)));
        self.issued.set(0);
        self.retries.set(0);
        self.windows_started.set(0);
        self.windows_ended.set(0);
    }

    /// Emits `load.window.start`/`load.window.end` markers for every
    /// freeze-window boundary crossed up to `now`. The stamped times are
    /// the *true* boundary instants (computed from the deterministic
    /// window schedule), not the observation time, so late observation
    /// costs nothing.
    fn mark_windows(&self, plan: &FaultPlan, t0: Time, now: Time, ctx: &MemCtx) {
        let period = plan.freeze_period.as_ps();
        if period == 0 {
            return;
        }
        let since = now.saturating_since(t0).as_ps();
        let k_now = since / period;
        let mut started = self.windows_started.get();
        while started < k_now {
            started += 1;
            let at = t0 + Span::from_ps(started * period);
            ctx.trace_instant("load.window.start", started, at.as_ps());
        }
        self.windows_started.set(started);
        let len = plan.freeze_len.as_ps();
        let mut ended = self.windows_ended.get();
        while ended < started && since >= (ended + 1) * period + len {
            ended += 1;
            let at = t0 + Span::from_ps(ended * period + len);
            ctx.trace_instant("load.window.end", ended, at.as_ps());
        }
        self.windows_ended.set(ended);
    }

    /// Admits (or sheds) every arrival with `t ≤ now`, in arrival order,
    /// consulting the admission policy per arrival. With the NIC front end
    /// enabled, `arrivals` are the *delivered* offsets from the precomputed
    /// [`NetTimeline`] (same index), and each observed packet leaves its
    /// wire/NIC/steer decomposition on the trace before the admission
    /// decision.
    fn catch_up(&self, arrivals: &[Span], net: &NetTimeline, spec: &LoadSpec, now: Time, ctx: &MemCtx) {
        let t0 = match self.t0.get() {
            Some(t) => t,
            None => {
                self.t0.set(Some(now));
                now
            }
        };
        self.mark_windows(&spec.faults, t0, now, ctx);
        let mut next = self.next_arrival.get();
        while next < arrivals.len() {
            let at = t0 + arrivals[next];
            if at > now {
                break;
            }
            let id = next as u64;
            if let Some(p) = net.packets.get(next) {
                ctx.trace_instant("net.arrival", id, (t0 + p.arrival).as_ps());
                ctx.trace_instant("net.wire", id, p.wire.as_ps());
                ctx.trace_instant("net.rxwait", id, p.rx_wait.as_ps());
                ctx.trace_instant("net.nic", id, p.nic.as_ps());
                ctx.trace_instant("net.steer", id, p.steer.as_ps());
                ctx.trace_instant("net.route", id, (u64::from(p.queue) << 32) | u64::from(p.core));
            }
            let decision = {
                let mut q = self.queue.borrow_mut();
                let d = self.policy.borrow_mut().on_arrival(
                    now,
                    at,
                    q.len(),
                    spec.queue_capacity,
                );
                if d == AdmissionDecision::Admit {
                    q.push_back((id, at));
                }
                d
            };
            if let AdmissionDecision::Shed(cause) = decision {
                self.shed.set(self.shed.get() + 1);
                ctx.trace_instant(cause.event_name(), id, at.as_ps());
            }
            next += 1;
        }
        self.next_arrival.set(next);
    }
}

/// The serving workload: traffic generation + dispatch over one
/// [`Service`], runnable anywhere a [`Workload`] is (platform, experiment,
/// sweep engine, fault plans).
pub struct ServingWorkload {
    spec: LoadSpec,
    /// Held between construction and `build`.
    service: Option<Box<dyn Service>>,
    /// Built service shared by all fiber bodies.
    built: Option<SharedService>,
    /// Open-loop arrival offsets (empty for closed loop). With the NIC
    /// front end enabled these are the NIC-*delivered* offsets.
    arrivals: Rc<Vec<Span>>,
    /// Per-packet NIC timings, index-aligned with `arrivals` (empty when
    /// the front end is disabled).
    net_timeline: Rc<NetTimeline>,
    /// Logical cores RSS steers onto, captured in `prepare`.
    cores: u32,
    /// Seed for per-user think-time streams (closed loop).
    think_seed: u64,
    /// Seed for the serving-layer fault injector's streams.
    fault_seed: u64,
    /// Fibers per phase, from `prepare`; spawn resets the runtime whenever
    /// the spawn counter wraps (each record/replay phase re-spawns all).
    total_fibers: usize,
    spawn_seen: Cell<usize>,
    rt: Rc<LoadRuntime>,
}

impl ServingWorkload {
    /// Creates a serving workload over `service`.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`LoadSpec::validate`].
    pub fn new(spec: LoadSpec, service: Box<dyn Service>) -> ServingWorkload {
        if let Err(e) = spec.validate() {
            panic!("invalid load spec: {e}");
        }
        let service = if spec.tiers.topology.is_direct() {
            service
        } else {
            Box::new(TieredService::new(service, spec.tiers))
        };
        ServingWorkload {
            spec,
            service: Some(service),
            built: None,
            arrivals: Rc::new(Vec::new()),
            net_timeline: Rc::new(NetTimeline::default()),
            cores: 1,
            think_seed: 0,
            fault_seed: 0,
            total_fibers: 0,
            spawn_seen: Cell::new(0),
            rt: Rc::new(LoadRuntime::new()),
        }
    }

    /// The spec this workload runs.
    pub fn spec(&self) -> &LoadSpec {
        &self.spec
    }
}

impl Workload for ServingWorkload {
    fn name(&self) -> &'static str {
        "serving"
    }

    fn build(&mut self, data: &mut Dataset) {
        let mut service = self.service.take().expect("build called once");
        service.build(data);
        self.built = Some(Rc::from(service));
        if self.spec.arrival.is_open_loop() {
            let mut rng = data.rng("load-arrivals");
            let wire_arrivals = self.spec.arrival.offsets(self.spec.requests, &mut rng);
            if self.spec.net.enabled {
                // Route every wire arrival through the modelled NIC and
                // admit on delivered times. The jitter stream exists only
                // on this path, so a disabled front end draws nothing.
                let mut jitter = data.rng("net-jitter");
                let tl = self.spec.net.timeline(&wire_arrivals, self.cores, &mut jitter);
                self.arrivals = Rc::new(tl.delivered_offsets());
                self.net_timeline = Rc::new(tl);
            } else {
                self.arrivals = Rc::new(wire_arrivals);
            }
        }
        self.think_seed = data.rng("load-think").seed();
        self.fault_seed = data.rng("serving-faults").seed();
    }

    fn prepare(&mut self, cores: usize, fibers_per_core: usize) {
        self.cores = cores.max(1) as u32;
        self.total_fibers = cores * fibers_per_core;
        self.spawn_seen.set(0);
    }

    fn spawn(&self, core: usize, fiber: usize, fibers_total: usize, ctx: MemCtx) -> FiberFuture {
        // A record/replay run spawns every fiber twice; restart the shared
        // dispatcher state at each phase boundary so both phases replay the
        // same admission sequence (and the measured phase starts clean).
        let seen = self.spawn_seen.get();
        if self.total_fibers > 0 && seen.is_multiple_of(self.total_fibers) {
            self.rt.reset(&self.spec, self.fault_seed);
        }
        self.spawn_seen.set(seen + 1);

        let service = self.built.clone().expect("spawn before build");
        let spec = self.spec;
        match spec.arrival {
            ArrivalProcess::ClosedLoop { users, think } => {
                let stripe = core * fibers_total + fiber;
                let think_seed = self.think_seed;
                let rt = self.rt.clone();
                Box::pin(async move {
                    // Each fiber is one user; extra fibers idle. Effective
                    // concurrency is min(users, total fibers).
                    if stripe >= users {
                        return;
                    }
                    let mut rng =
                        SimRng::from_seed(think_seed).split(&format!("user-{stripe}"));
                    let retry = spec.retry;
                    let mut hedge = HedgeWindow::new();
                    for i in 0..spec.requests {
                        let gap = ArrivalProcess::think_gap(think, &mut rng);
                        ctx.sleep_until(ctx.now() + gap).await;
                        let id = (stripe * spec.requests + i) as u64;
                        rt.issued.set(rt.issued.get() + 1);
                        // No queue: a closed-loop request dispatches the
                        // instant its user stops thinking.
                        let start = ctx.now();
                        ctx.trace_instant("load.dispatch", id, start.as_ps());
                        let mut attempt = 0u32;
                        loop {
                            attempt += 1;
                            if !spec.dispatch_overhead.is_zero() {
                                ctx.host_work(spec.dispatch_overhead);
                            }
                            let issued_at = ctx.now();
                            let _ = service.serve(id, &ctx).await;
                            let latency = ctx.now().saturating_since(issued_at);
                            if let Some(q) = retry.hedge_quantile {
                                // Judge against history *before* recording
                                // this sample, as a live client would.
                                if hedge.delay(q).is_some_and(|d| latency > d) {
                                    ctx.trace_instant("load.hedge", id, attempt as u64);
                                    // Conservative hedging model: the hedge
                                    // costs a full extra serve and is never
                                    // credited with a latency win.
                                    let _ = service.serve(id, &ctx).await;
                                }
                                hedge.record(latency);
                            }
                            let Some(timeout) = retry.timeout else { break };
                            if latency <= timeout {
                                break;
                            }
                            ctx.trace_instant("load.timeout", id, attempt as u64);
                            if !retry.may_retry(attempt, rt.issued.get(), rt.retries.get()) {
                                // Budget or attempt cap: accept the stale
                                // answer rather than amplify further.
                                break;
                            }
                            rt.retries.set(rt.retries.get() + 1);
                            ctx.trace_instant("load.retry", id, attempt as u64);
                            let backoff = retry.retry_backoff(attempt, &mut rng);
                            ctx.sleep_until(ctx.now() + backoff).await;
                        }
                        ctx.trace_instant("load.complete", id, start.as_ps());
                    }
                })
            }
            _ => {
                let rt = self.rt.clone();
                let arrivals = self.arrivals.clone();
                let net_timeline = self.net_timeline.clone();
                // Response serialization, reported per completion when the
                // front end is on.
                let tx_cost = spec
                    .net
                    .enabled
                    .then(|| spec.net.wire_cost(spec.net.response_bytes));
                Box::pin(async move {
                    loop {
                        let now = ctx.now();
                        rt.catch_up(&arrivals, &net_timeline, &spec, now, &ctx);
                        // Concurrency gate: a closed gate leaves the queue
                        // alone — the in-flight workers' completions will
                        // re-open it and drain.
                        let gated = !rt.policy.borrow_mut().allow_dispatch(rt.in_flight.get());
                        let popped = if gated {
                            None
                        } else {
                            // Pop until a request survives dispatch-time
                            // shedding (deadline head drops).
                            loop {
                                let head = rt.queue.borrow_mut().pop_front();
                                let Some((id, arrival)) = head else { break None };
                                let cause =
                                    rt.policy.borrow_mut().on_dispatch(now, arrival);
                                match cause {
                                    None => break Some((id, arrival)),
                                    Some(c) => {
                                        rt.shed.set(rt.shed.get() + 1);
                                        ctx.trace_instant(c.event_name(), id, arrival.as_ps());
                                    }
                                }
                            }
                        };
                        if let Some((id, arrival)) = popped {
                            // Serving-fault decisions, one fixed draw order
                            // per dispatch so each site's stream advances
                            // once per dispatch regardless of outcomes.
                            let t0 = rt.t0.get().expect("catch_up sets t0");
                            let (crash, stall, freeze) = match rt.injector.borrow_mut().as_mut()
                            {
                                None => (None, None, None),
                                Some(inj) => (
                                    inj.fiber_crash(),
                                    inj.dispatcher_stall(),
                                    inj.freeze_overhead(now.saturating_since(t0)),
                                ),
                            };
                            if let Some(respawn) = crash {
                                // The fiber dies holding the request: put it
                                // back at the head, pay the respawn window
                                // off the run ring, then rejoin the loop.
                                rt.queue.borrow_mut().push_front((id, arrival));
                                ctx.trace_instant("load.crash", id, arrival.as_ps());
                                ctx.crash_respawn(respawn).await;
                                continue;
                            }
                            if !spec.dispatch_overhead.is_zero() {
                                ctx.host_work(spec.dispatch_overhead);
                            }
                            if let Some(extra) = stall {
                                ctx.trace_instant("load.stall", id, extra.as_ps());
                                ctx.host_work(extra);
                            }
                            if let Some(extra) = freeze {
                                ctx.host_work(extra);
                            }
                            ctx.trace_instant("load.dispatch", id, arrival.as_ps());
                            rt.in_flight.set(rt.in_flight.get() + 1);
                            let _ = service.serve(id, &ctx).await;
                            rt.in_flight.set(rt.in_flight.get() - 1);
                            let end = ctx.now();
                            ctx.trace_instant("load.complete", id, arrival.as_ps());
                            if let Some(tx) = tx_cost {
                                ctx.trace_instant("net.tx", id, tx.as_ps());
                                if ctx.wants(TraceClass::Causal) {
                                    // Egress span: the TX path covers
                                    // [completion, completion + tx) — no
                                    // longer a flat, invisible tail.
                                    ctx.trace_complete_span("rpc.tx", end, end + tx, id);
                                }
                            }
                            rt.policy
                                .borrow_mut()
                                .on_complete(end, end.saturating_since(arrival));
                            continue;
                        }
                        // Idle: claim the next unclaimed arrival and sleep
                        // until it. Claims are unique, so every future
                        // arrival has exactly one sleeping worker and each
                        // wake-up costs one context switch — not one per
                        // idle fiber. With no claimable arrival left, exit:
                        // every pending arrival's claimed worker (or a
                        // worker busy serving) will drain the queue.
                        let claim = rt.next_claim.get().max(rt.next_arrival.get());
                        if claim >= arrivals.len() {
                            break;
                        }
                        rt.next_claim.set(claim + 1);
                        let t0 = rt.t0.get().expect("catch_up sets t0");
                        ctx.sleep_until(t0 + arrivals[claim]).await;
                    }
                })
            }
        }
    }
}

/// Builds a traced [`Experiment`] that runs `spec` against the factory's
/// service — the bridge between the serving loop and the PR 3 sweep
/// engine. Tracing is forced on: the load analytics are reconstructed
/// from the event trace. Invalid specs surface as [`ConfigError`]s
/// instead of panics.
pub fn load_experiment(
    label: impl Into<String>,
    spec: LoadSpec,
    cfg: PlatformConfig,
    service: ServiceFactory,
) -> Result<Experiment, ConfigError> {
    spec.validate().map_err(ConfigError::Serving)?;
    Experiment::from_factory(
        label,
        cfg.traced(),
        std::sync::Arc::new(move || {
            Box::new(ServingWorkload::new(spec, service())) as Box<dyn Workload + 'static>
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::LoadReport;
    use crate::service::{service_factory, EchoService};
    use kus_core::prelude::{Mechanism, Platform, RunReport};

    fn run(spec: LoadSpec, cfg: PlatformConfig) -> RunReport {
        let mut w = ServingWorkload::new(spec, Box::new(EchoService::new(256)));
        Platform::try_new(cfg.traced()).expect("valid config").run(&mut w)
    }

    fn base_cfg() -> PlatformConfig {
        PlatformConfig::paper_default()
            .without_replay_device()
            .mechanism(Mechanism::Prefetch)
            .fibers_per_core(4)
    }

    fn poisson(rate: f64, requests: usize) -> LoadSpec {
        LoadSpec::new(ArrivalProcess::Poisson { rate_rps: rate }).requests(requests)
    }

    #[test]
    fn invalid_specs_are_serving_errors() {
        let err = |spec: LoadSpec| {
            let factory = service_factory(|| EchoService::new(64));
            match load_experiment("bad", spec, base_cfg(), factory) {
                Ok(_) => panic!("spec is invalid"),
                Err(e) => e.to_string(),
            }
        };
        assert_eq!(
            err(poisson(1000.0, 10).tiers(crate::TierSpec::fanout(0))),
            "invalid serving spec: fan-out width must be at least 1"
        );
        assert_eq!(
            err(poisson(1000.0, 10).queue_capacity(0)),
            "invalid serving spec: queue capacity must be at least 1"
        );
    }

    #[test]
    fn open_loop_serves_every_admitted_request() {
        let r = run(poisson(200_000.0, 300), base_cfg());
        let report = LoadReport::from_run(&r).expect("traced run yields a report");
        assert_eq!(report.offered, 300);
        assert_eq!(report.completed + report.shed, report.offered);
        assert!(report.completed > 0, "nothing served");
        assert!(report.latency.p50 >= Span::from_ns(900), "latency below one device RTT");
    }

    #[test]
    fn overload_sheds_instead_of_queueing_unboundedly() {
        // 10M rps against a single prefetch core with a 4-deep queue: the
        // queue must overflow and shed rather than grow without bound.
        let spec = poisson(10_000_000.0, 400).queue_capacity(4);
        let r = run(spec, base_cfg());
        let report = LoadReport::from_run(&r).expect("report");
        assert!(report.shed > 0, "overload must shed");
        assert_eq!(report.completed + report.shed, 400);
        assert!(report.queue_depth_max <= 4, "depth {} exceeds capacity", report.queue_depth_max);
        assert_eq!(report.shed, report.shed_queue_full, "static sheds only on overflow");
    }

    #[test]
    fn same_seed_reproduces_trace_and_report() {
        let go = |seed: u64| {
            let r = run(poisson(500_000.0, 200), base_cfg().seed(seed));
            let t = r.trace.as_ref().expect("traced").hash;
            let report = LoadReport::from_run(&r).expect("report");
            (t, report.to_json())
        };
        assert_eq!(go(11), go(11), "same seed must reproduce run + report");
        assert_ne!(go(11).0, go(12).0, "distinct seeds must produce distinct traces");
    }

    #[test]
    fn closed_loop_completes_all_users() {
        let spec = LoadSpec::new(ArrivalProcess::ClosedLoop {
            users: 4,
            think: Span::from_us(2),
        })
        .requests(25);
        let r = run(spec, base_cfg());
        let report = LoadReport::from_run(&r).expect("report");
        assert_eq!(report.completed, 100, "4 users x 25 requests");
        assert_eq!(report.shed, 0, "closed loop never sheds");
    }

    #[test]
    fn record_replay_phases_reset_the_dispatcher() {
        // The default paper config runs a record phase then a measured
        // replay phase; both spawn the full fiber set, so the dispatcher
        // must reset cleanly and the measured phase must still serve the
        // complete trace.
        let cfg = PlatformConfig::paper_default().mechanism(Mechanism::Prefetch).fibers_per_core(4);
        let r = run(poisson(200_000.0, 150), cfg);
        let report = LoadReport::from_run(&r).expect("report");
        assert_eq!(report.completed + report.shed, 150);
    }

    #[test]
    fn load_experiment_rides_the_experiment_api() {
        let exp = load_experiment(
            "echo poisson",
            poisson(300_000.0, 120),
            base_cfg(),
            service_factory(|| EchoService::new(64)),
        )
        .expect("valid");
        let a = exp.run();
        let b = exp.run();
        assert_eq!(
            a.trace.as_ref().map(|t| t.hash),
            b.trace.as_ref().map(|t| t.hash),
            "experiment reruns must be identical"
        );
        let report = LoadReport::from_run(&a).expect("report");
        assert_eq!(report.offered, 120);
    }

    #[test]
    fn default_policy_and_empty_plan_are_inert() {
        // Spelling out the defaults explicitly must not perturb a single
        // bit of the trace relative to a spec that never mentions them.
        let spec = poisson(800_000.0, 250).queue_capacity(8);
        let explicit = spec
            .admission(AdmissionControl::Static)
            .retry(RetryPolicy::none())
            .faults(FaultPlan::none());
        let a = run(spec, base_cfg().seed(21));
        let b = run(explicit, base_cfg().seed(21));
        assert_eq!(
            a.trace.as_ref().map(|t| t.hash),
            b.trace.as_ref().map(|t| t.hash),
            "inert overload knobs must be bit-invisible"
        );
        let ra = LoadReport::from_run(&a).expect("report");
        let rb = LoadReport::from_run(&b).expect("report");
        assert_eq!(ra.to_json(), rb.to_json());
    }

    #[test]
    fn nic_and_tier_defaults_are_bitwise_inert() {
        // Spelling out a disabled NIC and a direct tier chain must not
        // perturb a single bit of the trace relative to a spec that never
        // mentions them — the front end may not even draw its RNG stream.
        let spec = poisson(800_000.0, 250).queue_capacity(8);
        let explicit = spec.net(NetConfig::default()).tiers(TierSpec::direct());
        let a = run(spec, base_cfg().seed(21));
        let b = run(explicit, base_cfg().seed(21));
        assert_eq!(
            a.trace.as_ref().map(|t| t.hash),
            b.trace.as_ref().map(|t| t.hash),
            "default net/tier knobs must be bit-invisible"
        );
        assert!(
            crate::net_report::NetReport::from_run(&a).is_none(),
            "disabled front end must leave no net events"
        );
    }

    #[test]
    fn nic_front_end_reports_the_wire_decomposition() {
        let spec = poisson(500_000.0, 200).net(NetConfig::on());
        let r = run(spec, base_cfg().seed(9));
        let report = LoadReport::from_run(&r).expect("report");
        assert_eq!(report.offered, 200);
        let net = crate::net_report::NetReport::from_run(&r).expect("net events present");
        assert_eq!(net.packets, 200, "every packet crosses the NIC");
        assert_eq!(net.completed, report.completed);
        assert!(net.nic.count > 0 && net.wire.count > 0);
        assert!(
            net.e2e.p50 > report.latency.p50,
            "client-observed e2e must include the wire/NIC path"
        );
        let steered: u64 = net.queue_load.iter().map(|&(_, n)| n).sum();
        assert_eq!(steered, 200, "RSS must route every packet");
    }

    #[test]
    fn nic_jitter_is_seeded_and_reproducible() {
        let spec = poisson(500_000.0, 150).net(NetConfig::on().jitter(Span::from_ns(400)));
        let hash = |seed| {
            run(spec, base_cfg().seed(seed)).trace.as_ref().expect("traced").hash
        };
        assert_eq!(hash(5), hash(5), "same seed, same jittered schedule");
        assert_ne!(hash(5), hash(6), "jitter must follow the platform seed");
    }

    #[test]
    fn rpc_fanout_chain_leaves_per_hop_spans() {
        let spec = poisson(300_000.0, 120).net(NetConfig::on()).tiers(TierSpec::fanout(4));
        // On-demand: each hop pays the full device RTT, so the fan-out
        // stage must be visibly µs-scale (prefetch would hide it).
        let r = run(spec, base_cfg().mechanism(Mechanism::OnDemand).seed(3));
        let net = crate::net_report::NetReport::from_run(&r).expect("net events");
        let names: Vec<&str> = net.hops.iter().map(|&(n, _)| n).collect();
        assert_eq!(
            names,
            vec!["rpc.front", "rpc.fanout", "rpc.service", "rpc.reply"],
            "every hop of the chain must leave spans"
        );
        let fanout = net.hops.iter().find(|&&(n, _)| n == "rpc.fanout").expect("fanout hop").1;
        assert!(
            fanout.p50 >= Span::from_ns(900),
            "each fan-out stage is at least one µs-scale device access, got {:?}",
            fanout.p50
        );
    }

    #[test]
    fn net_requires_open_loop_arrivals() {
        let spec = LoadSpec::new(ArrivalProcess::ClosedLoop { users: 2, think: Span::from_us(1) })
            .net(NetConfig::on());
        assert!(spec.validate().is_err());
    }

    #[test]
    fn deadline_aware_sheds_stale_heads_under_overload() {
        let slo = SloSpec::default().p99(Span::from_us(100));
        // 12M rps against ~5M rps of capacity: queue waits sit well above
        // the 5 µs target for longer than the 10 µs interval.
        let spec = poisson(12_000_000.0, 400)
            .queue_capacity(64)
            .slo(slo)
            .admission(AdmissionControl::DeadlineAware {
                target: Span::from_us(5),
                interval: Span::from_us(10),
            });
        let r = run(spec, base_cfg());
        let report = LoadReport::from_run(&r).expect("report");
        assert!(report.shed_deadline > 0, "sustained overload must head-drop");
        assert_eq!(report.completed + report.shed, 400);
        assert_eq!(
            report.shed,
            report.shed_queue_full + report.shed_deadline + report.shed_admission,
            "shed total is the per-cause sum"
        );
    }

    #[test]
    fn adaptive_concurrency_gates_in_flight() {
        let slo = SloSpec::default().p99(Span::from_us(30));
        let spec = poisson(5_000_000.0, 400)
            .queue_capacity(16)
            .slo(slo)
            .admission(AdmissionControl::AdaptiveConcurrency {
                initial: 4,
                max: 8,
                window: 8,
            });
        let r = run(spec, base_cfg());
        let report = LoadReport::from_run(&r).expect("report");
        assert_eq!(report.completed + report.shed, 400);
        assert!(
            report.shed_admission > 0,
            "AIMD backpressure must reject at admission under overload"
        );
    }

    #[test]
    fn serving_faults_crash_and_stall_deterministically() {
        let plan = FaultPlan::none()
            .with_fiber_crashes(0.05, Span::from_us(20))
            .with_dispatcher_stalls(0.05, Span::from_us(5));
        let spec = poisson(400_000.0, 200).faults(plan);
        let go = || {
            let r = run(spec, base_cfg().seed(33));
            let report = LoadReport::from_run(&r).expect("report");
            (r.trace.as_ref().expect("traced").hash, report.to_json(), report.crashes)
        };
        let (ha, ja, crashes) = go();
        let (hb, jb, _) = go();
        assert_eq!(ha, hb, "chaos must be bit-reproducible");
        assert_eq!(ja, jb);
        assert!(crashes > 0, "plan must actually crash fibers");
        // Every offered request still gets an outcome despite the chaos.
        let r = run(spec, base_cfg().seed(33));
        let report = LoadReport::from_run(&r).expect("report");
        assert_eq!(report.completed + report.shed, 200);
    }

    #[test]
    fn freeze_windows_leave_markers() {
        let plan = FaultPlan::none().with_freeze_windows(
            Span::from_us(300),
            Span::from_us(100),
            Span::from_us(30),
        );
        let spec = poisson(300_000.0, 400).faults(plan);
        let r = run(spec, base_cfg());
        let report = LoadReport::from_run(&r).expect("report");
        assert!(!report.fault_windows.is_empty(), "freeze plan must leave window markers");
        for (start, end) in &report.fault_windows {
            assert!(end > start, "windows are well-formed");
        }
    }

    #[test]
    fn closed_loop_retries_respect_budget() {
        // A closed loop against a latency-spiking device: the budgeted
        // client must keep amplification bounded.
        let chaos = FaultPlan::none().with_latency_spikes(0.3, Span::from_us(40));
        let spec = LoadSpec::new(ArrivalProcess::ClosedLoop { users: 4, think: Span::from_us(2) })
            .requests(40)
            .retry(RetryPolicy::budgeted(Span::from_us(8), 4, 0.1, Span::from_us(2)));
        let r = run(spec, base_cfg().faults(chaos).seed(5));
        let report = LoadReport::from_run(&r).expect("report");
        assert_eq!(report.completed, 160);
        assert!(report.client_timeouts > 0, "spikes must blow the client timeout");
        let cap = (0.1 * report.completed as f64).ceil();
        assert!(
            (report.retries as f64) <= cap + 1.0,
            "budget must cap retries: {} > {}",
            report.retries,
            cap
        );
        assert!(report.retry_amplification < 1.2, "amplification {}", report.retry_amplification);
    }
}
