//! The per-core executor: binds user-level fibers to a simulated core and
//! implements the three `dev_access` mechanisms.
//!
//! One [`Executor`] drives one core. Fibers are polled cooperatively; while
//! a fiber runs it *buffers* micro-ops through its [`MemCtx`]; when it
//! suspends, the executor flushes the buffer into the core's frontend in
//! program order. Value delivery flows the other way: a load's completion
//! hook fills the fiber's one-shot slot and wakes it.
//!
//! Cost accounting follows the paper's optimized threading library:
//!
//! - resuming a fiber through the scheduler (after a yield, or when a
//!   different fiber runs next) charges the context-switch cost
//!   (20–50 ns; default 35 ns);
//! - a fiber whose blocking load completes while the core sits idle resumes
//!   for free — that is the hardware waking dependent instructions, not the
//!   scheduler;
//! - software-queue operations charge their own explicit costs
//!   ([`SwqCosts`]).

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::future::Future;
use std::ops::Range;
use std::pin::Pin;
use std::rc::Rc;

use kus_cpu::{Core, Op, OpId, OpKind};
use kus_fiber::{yield_now, Fiber, FiberId, OneShot, PollOutcome, SchedPolicy, Watchdog, YieldFlag};
use kus_mem::{Addr, ByteStore};
use kus_sim::callback::{component, Callback};
use kus_sim::event::EventFn;
use kus_sim::stats::Counter;
use kus_sim::trace::{EventName, TraceClass};
use kus_sim::{Sim, Span, Time, Tracer};
use kus_swq::descriptor::Descriptor;
use kus_swq::ring::QueuePair;
use kus_swq::SwqCosts;

use crate::config::SwqRecovery;
use crate::mechanism::Mechanism;

/// A dependence on either an op buffered this poll or an already-emitted op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BufDep {
    Buffered(usize),
    Real(OpId),
}

struct BufOp {
    kind: OpKind,
    /// This op's deps: a range of [`EmitBuf::deps`].
    deps: Range<usize>,
    on_complete: Option<EventFn>,
}

/// The ops one poll of a fiber buffers, flushed into the core in program
/// order. Their deps share one list, and the flush reuses its scratch, so
/// buffering and flushing an op allocate nothing once the buffers have
/// grown.
#[derive(Default)]
struct EmitBuf {
    ops: Vec<BufOp>,
    deps: Vec<BufDep>,
    /// ROB slots the buffered ops will occupy.
    slots: u32,
    /// Flush scratch: the flushed ops' real ids, and one op's real deps.
    ids: Vec<OpId>,
    op_deps: Vec<OpId>,
}

impl EmitBuf {
    fn push(&mut self, kind: OpKind, deps: impl IntoIterator<Item = BufDep>, on_complete: Option<EventFn>) -> BufDep {
        let start = self.deps.len();
        self.deps.extend(deps);
        self.slots += kind.slots();
        self.ops.push(BufOp { kind, deps: start..self.deps.len(), on_complete });
        BufDep::Buffered(self.ops.len() - 1)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FiberState {
    Ready,
    Running,
    Blocked,
    Done,
}

struct FiberBook {
    fiber: Option<Fiber>,
    state: FiberState,
    /// Ops whose values the most recent `dev_read` produced; the next
    /// `work` depends on them.
    last_reads: Vec<BufDep>,
    /// The most recent serializing op (work tail, queue management).
    last_serial: Option<BufDep>,
    /// Blocked specifically on frontend back-pressure.
    wants_frontend: bool,
    /// The pending suspension is a timer wait (`sleep_until`), not a memory
    /// op: the scheduler keeps the fiber off the run rotation until the
    /// wake event fires. Consumed at the next `Blocked` poll outcome.
    sleeping: bool,
}

/// Causal tag carried by a tagged device read: the `Complete` span emitted
/// when the value becomes available. Emission-only — a tagged read
/// schedules exactly what an untagged one does.
#[derive(Debug, Clone, Copy)]
struct CausalSpan {
    name: EventName,
    a0: u64,
    start: Time,
}

struct SwqPending {
    slot: OneShot<u64>,
    fiber: FiberId,
    addr: Addr,
    /// Causal span to close when the value is delivered (or failed over).
    causal: Option<CausalSpan>,
    /// Absolute expiry time of the current attempt ([`Time::MAX`] until the
    /// enqueue op lands, or when recovery is disabled).
    deadline: Time,
    /// Re-enqueue attempts performed so far.
    retries: u32,
}

/// Timeout/retry/degradation machinery for one core's SWQ state.
struct RecoveryState {
    cfg: SwqRecovery,
    watchdog: Watchdog,
    /// An expiry-scan event is in flight.
    check_armed: bool,
    /// The configured doorbell mode to restore after degradation.
    base_doorbell_always: bool,
}

/// A completion-delivery callback keyed by request tag.
pub(crate) type TagHook = Rc<dyn Fn(&mut Sim, u64)>;

/// Recovery counters harvested into the run's fault report.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SwqRecoveryStats {
    pub(crate) timeouts: u64,
    pub(crate) retries: u64,
    pub(crate) failed: u64,
    pub(crate) stale_completions: u64,
    pub(crate) degradations: u64,
    pub(crate) restorations: u64,
}

/// Software-queue state for one core's executor.
pub(crate) struct SwqState {
    pub(crate) qp: Rc<RefCell<QueuePair>>,
    pub(crate) costs: SwqCosts,
    /// Sends the doorbell MMIO write to the device (platform-wired).
    pub(crate) ring_doorbell: Rc<dyn Fn(&mut Sim)>,
    pending: HashMap<u64, SwqPending>,
    next_tag: u64,
    /// When the previous completion landed: completions arriving within a
    /// burst share one completion-queue scan.
    last_completion: Time,
    recovery: Option<RecoveryState>,
    /// Requests whose deadline expired at least once.
    pub(crate) timeouts: Counter,
    /// Re-enqueue attempts performed.
    pub(crate) retries_performed: Counter,
    /// Requests abandoned after exhausting their retry budget.
    pub(crate) failed: Counter,
    /// Completions for tags no longer pending (duplicates, or late arrivals
    /// of attempts the timeout path already resolved) — absorbed by dedup.
    pub(crate) stale_completions: Counter,
}

impl SwqState {
    pub(crate) fn new(
        qp: Rc<RefCell<QueuePair>>,
        costs: SwqCosts,
        ring_doorbell: Rc<dyn Fn(&mut Sim)>,
    ) -> SwqState {
        SwqState {
            qp,
            costs,
            ring_doorbell,
            pending: HashMap::new(),
            next_tag: 0,
            last_completion: Time::MAX,
            recovery: None,
            timeouts: Counter::default(),
            retries_performed: Counter::default(),
            failed: Counter::default(),
            stale_completions: Counter::default(),
        }
    }

    /// Enables timeout/retry/degradation handling. `base_doorbell_always`
    /// is the configured mode the watchdog restores after a degradation
    /// episode ends.
    pub(crate) fn enable_recovery(&mut self, cfg: SwqRecovery, base_doorbell_always: bool) {
        assert!(cfg.enabled && !cfg.timeout.is_zero() && !cfg.check_interval.is_zero());
        self.recovery = Some(RecoveryState {
            cfg,
            watchdog: Watchdog::new(cfg.quiet_period),
            check_armed: false,
            base_doorbell_always,
        });
    }
}

pub(crate) struct ExecInner {
    core: Rc<RefCell<Core>>,
    mechanism: Mechanism,
    dataset: Rc<RefCell<ByteStore>>,
    policy: Box<dyn SchedPolicy>,
    fibers: Vec<FiberBook>,
    current: Option<FiberId>,
    switch_cost: Span,
    emit: EmitBuf,
    step_pending: bool,
    switching: bool,
    hook_armed: bool,
    idle: bool,
    /// The core is stalled on this fiber's pending value (a strict
    /// round-robin rotation handed the CPU to a not-yet-ready thread; the
    /// hardware waits on the MSHR).
    parked_on: Option<FiberId>,
    /// When the current park began (profiling: the `cpu.park` span start).
    park_since: Option<Time>,
    live: usize,
    swq: Option<SwqState>,
    tracer: Tracer,
    /// Tracer timeline row: the core id.
    track: u32,
    /// Mirror of the simulation clock, captured in [`Executor::start`];
    /// lets fibers read the current time without a `&Sim`.
    clock: Rc<Cell<Time>>,
    /// Context switches performed by the user-level scheduler.
    pub switches: Counter,
    /// Device (dataset) accesses issued by fibers.
    pub accesses: Counter,
    /// Dataset writes issued by fibers.
    pub writes: Counter,
}

/// The per-core fiber executor.
pub struct Executor {
    inner: Rc<RefCell<ExecInner>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let x = self.inner.borrow();
        f.debug_struct("Executor")
            .field("fibers", &x.fibers.len())
            .field("live", &x.live)
            .field("mechanism", &x.mechanism)
            .finish()
    }
}

impl Executor {
    /// Creates an executor for `core` with scheduling `policy`.
    pub fn new(
        core: Rc<RefCell<Core>>,
        mechanism: Mechanism,
        dataset: Rc<RefCell<ByteStore>>,
        policy: Box<dyn SchedPolicy>,
        switch_cost: Span,
    ) -> Executor {
        let track = core.borrow().id() as u32;
        Executor {
            inner: Rc::new(RefCell::new(ExecInner {
                core,
                mechanism,
                dataset,
                policy,
                fibers: Vec::new(),
                current: None,
                switch_cost,
                emit: EmitBuf::default(),
                step_pending: false,
                switching: false,
                hook_armed: false,
                idle: false,
                parked_on: None,
                park_since: None,
                live: 0,
                swq: None,
                tracer: Tracer::off(),
                track,
                clock: Rc::new(Cell::new(Time::ZERO)),
                switches: Counter::default(),
                accesses: Counter::default(),
                writes: Counter::default(),
            })),
        }
    }

    /// Installs the software-queue state (required before spawning fibers
    /// when the mechanism is [`Mechanism::SoftwareQueue`]).
    pub(crate) fn set_swq(&self, swq: SwqState) {
        self.inner.borrow_mut().swq = Some(swq);
    }

    /// Attaches a tracer; executor events land on the core's track.
    pub fn set_tracer(&self, tracer: Tracer) {
        let mut x = self.inner.borrow_mut();
        let track = x.track;
        if let Some(rec) = x.swq.as_mut().and_then(|s| s.recovery.as_mut()) {
            rec.watchdog.set_tracer(tracer.clone(), track);
        }
        x.tracer = tracer;
    }

    /// The host-side hook the platform wires into the device's request
    /// fetcher: delivers a completion to the waiting fiber, charging the
    /// completion-handling software cost.
    ///
    /// The hook holds the executor weakly. The fetcher that owns it is in
    /// turn owned by the executor's doorbell closure, so a strong edge
    /// would close an `Rc` cycle and keep every core, fiber and device of
    /// the run alive after it ends. A completion landing after the
    /// executor is gone has no one to deliver to and is dropped.
    pub(crate) fn swq_completion_hook(&self) -> TagHook {
        let inner = Rc::downgrade(&self.inner);
        Rc::new(move |sim: &mut Sim, tag: u64| {
            if let Some(inner) = inner.upgrade() {
                ExecInner::on_swq_completion(&inner, sim, tag);
            }
        })
    }

    /// Spawns a fiber. `f` receives the fiber's [`MemCtx`] and must return
    /// its future. Returns the fiber id.
    pub fn spawn<Fut>(&self, f: impl FnOnce(MemCtx) -> Fut) -> FiberId
    where
        Fut: Future<Output = ()> + 'static,
    {
        let id = self.inner.borrow().fibers.len();
        let yield_flag = YieldFlag::new();
        let ctx = MemCtx { exec: self.inner.clone(), fiber: id, yield_flag: yield_flag.clone() };
        // Build the future before re-borrowing: async bodies are lazy, but a
        // constructor is free to inspect its context.
        let fiber = Fiber::new(id, yield_flag.clone(), f(ctx));
        let mut x = self.inner.borrow_mut();
        x.fibers.push(FiberBook {
            fiber: Some(fiber),
            state: FiberState::Ready,
            last_reads: Vec::new(),
            last_serial: None,
            wants_frontend: false,
            sleeping: false,
        });
        x.policy.register(id);
        x.live += 1;
        id
    }

    /// Starts executing fibers (schedules the first step).
    pub fn start(&self, sim: &mut Sim) {
        self.inner.borrow_mut().clock = sim.now_handle();
        ExecInner::kick(&self.inner, sim);
    }

    /// Number of fibers not yet finished.
    pub fn live(&self) -> usize {
        self.inner.borrow().live
    }

    /// Context switches performed so far.
    pub fn switches(&self) -> u64 {
        self.inner.borrow().switches.get()
    }

    /// Times the scheduler handed the core to a not-yet-ready fiber (the
    /// strict-rotation stalls; zero for ready-only policies like FIFO).
    pub fn stall_handoffs(&self) -> u64 {
        self.inner.borrow().policy.stall_handoffs()
    }

    /// Fiber crash-and-respawns recorded by the scheduling policy.
    pub fn fiber_crashes(&self) -> u64 {
        self.inner.borrow().policy.crashes()
    }

    /// Dataset accesses issued so far.
    pub fn accesses(&self) -> u64 {
        self.inner.borrow().accesses.get()
    }

    /// Dataset writes issued so far.
    pub fn writes(&self) -> u64 {
        self.inner.borrow().writes.get()
    }

    /// Recovery counters for this core's SWQ state (None when the executor
    /// has no SWQ state installed).
    pub(crate) fn swq_recovery_stats(&self) -> Option<SwqRecoveryStats> {
        let x = self.inner.borrow();
        let swq = x.swq.as_ref()?;
        let (degradations, restorations) = match &swq.recovery {
            Some(rec) => (rec.watchdog.degradations.get(), rec.watchdog.restorations.get()),
            None => (0, 0),
        };
        Some(SwqRecoveryStats {
            timeouts: swq.timeouts.get(),
            retries: swq.retries_performed.get(),
            failed: swq.failed.get(),
            stale_completions: swq.stale_completions.get(),
            degradations,
            restorations,
        })
    }

    /// Enables SWQ timeout/retry/degradation handling on this executor.
    pub(crate) fn enable_swq_recovery(&self, cfg: SwqRecovery, base_doorbell_always: bool) {
        let mut x = self.inner.borrow_mut();
        let (tracer, track) = (x.tracer.clone(), x.track);
        let swq = x.swq.as_mut().expect("enable_swq_recovery before set_swq");
        swq.enable_recovery(cfg, base_doorbell_always);
        if let Some(rec) = swq.recovery.as_mut() {
            rec.watchdog.set_tracer(tracer, track);
        }
    }
}

impl ExecInner {
    fn kick(this: &Rc<RefCell<ExecInner>>, sim: &mut Sim) {
        {
            let mut x = this.borrow_mut();
            if x.step_pending || x.switching {
                return;
            }
            x.step_pending = true;
        }
        sim.schedule_callback_at(sim.now(), Callback::new(ExecInner::kicked, this.clone(), 0));
    }

    fn kicked(sim: &mut Sim, this: Rc<dyn Any>, _: u64) {
        let this = component::<RefCell<ExecInner>>(this);
        this.borrow_mut().step_pending = false;
        ExecInner::step(&this, sim);
    }

    fn step(this: &Rc<RefCell<ExecInner>>, sim: &mut Sim) {
        // Frontend back-pressure: wait for the core to want more ops.
        {
            let mut x = this.borrow_mut();
            if x.switching || x.live == 0 {
                return;
            }
            let wants = x.core.borrow().wants_more();
            if !wants {
                if !x.hook_armed {
                    x.hook_armed = true;
                    let core = x.core.clone();
                    drop(x);
                    let hook = Callback::new(ExecInner::frontend_ready, this.clone(), 0);
                    Core::set_emit_hook(&core, sim, hook);
                }
                return;
            }
        }
        // Pick the next fiber through the scheduler.
        let pick = {
            let mut x = this.borrow_mut();
            if x.parked_on.is_some() {
                return; // stalled on a pending value; its wake resumes us
            }
            let current = x.current;
            match x.policy.pick_next(current) {
                Some(n) => {
                    x.idle = false;
                    Some(n)
                }
                None => {
                    x.idle = true;
                    None
                }
            }
        };
        let Some(next) = pick else { return };
        // Scheduler-mediated resumption: charge the context-switch cost.
        let cost = {
            let mut x = this.borrow_mut();
            x.switching = true;
            x.switches.incr();
            x.tracer.instant(EventName::FiberSwitch, x.track, next as u64, x.switches.get());
            x.switch_cost
        };
        if cost.is_zero() {
            this.borrow_mut().switching = false;
            ExecInner::run_or_park(this, sim, next);
        } else {
            sim.schedule_callback_in(cost, Callback::new(ExecInner::switched, this.clone(), next as u64));
        }
    }

    /// The context switch to fiber `next` is over; it began `switch_cost`
    /// ago.
    fn switched(sim: &mut Sim, this: Rc<dyn Any>, next: u64) {
        let this = component::<RefCell<ExecInner>>(this);
        {
            let mut x = this.borrow_mut();
            x.switching = false;
            if x.tracer.wants(TraceClass::Profile) {
                let start = sim.now() - x.switch_cost;
                x.tracer.complete_since(EventName::CpuCtx, x.track, start, next);
            }
        }
        ExecInner::run_or_park(&this, sim, next as FiberId);
    }

    /// After a context switch lands on `next`: run it if it is ready, or
    /// stall the core on it until its pending value arrives (the strict
    /// round-robin semantics of a cooperative scheduler — the chosen
    /// thread's blocking load simply waits in the MSHR).
    fn run_or_park(this: &Rc<RefCell<ExecInner>>, sim: &mut Sim, next: FiberId) {
        let ready = {
            let mut x = this.borrow_mut();
            match x.fibers[next].state {
                FiberState::Ready => true,
                FiberState::Blocked => {
                    x.current = Some(next);
                    x.parked_on = Some(next);
                    x.park_since = Some(sim.now());
                    false
                }
                s => unreachable!("picked fiber {next} in state {s:?}"),
            }
        };
        if ready {
            ExecInner::poll_fiber(this, sim, next);
        }
    }

    fn frontend_ready(sim: &mut Sim, this: Rc<dyn Any>, _: u64) {
        let this = &component::<RefCell<ExecInner>>(this);
        let resume = {
            let mut x = this.borrow_mut();
            x.hook_armed = false;
            let mut resume = None;
            // Fibers blocked purely on back-pressure become runnable again.
            for id in 0..x.fibers.len() {
                if x.fibers[id].wants_frontend && x.fibers[id].state == FiberState::Blocked {
                    x.fibers[id].wants_frontend = false;
                    x.fibers[id].state = FiberState::Ready;
                    if x.parked_on == Some(id) && !x.switching {
                        x.parked_on = None;
                        if let Some(since) = x.park_since.take() {
                            if x.tracer.wants(TraceClass::Profile) {
                                x.tracer.complete_since(EventName::CpuPark, x.track, since, id as u64);
                            }
                        }
                        resume = Some(id);
                    } else {
                        x.policy.make_ready(id);
                    }
                }
            }
            resume
        };
        if let Some(id) = resume {
            ExecInner::poll_fiber(this, sim, id);
        }
        ExecInner::kick(this, sim);
    }

    /// Resumes `id` without scheduler involvement (hardware wake of the
    /// blocked thread) or re-queues it, depending on executor state.
    fn wake(this: &Rc<RefCell<ExecInner>>, sim: &mut Sim, id: FiberId) {
        let fast = {
            let mut x = this.borrow_mut();
            if x.fibers[id].state != FiberState::Blocked {
                return; // value arrived before the fiber even blocked
            }
            x.fibers[id].state = FiberState::Ready;
            let parked_here = x.parked_on == Some(id);
            let idle_here = x.idle && x.current == Some(id);
            if (parked_here || idle_here) && !x.switching {
                x.parked_on = None;
                if let Some(since) = x.park_since.take() {
                    if x.tracer.wants(TraceClass::Profile) {
                        x.tracer.complete_since(EventName::CpuPark, x.track, since, id as u64);
                    }
                }
                x.idle = false;
                true
            } else {
                x.policy.make_ready(id);
                false
            }
        };
        if fast {
            ExecInner::poll_fiber(this, sim, id);
        } else {
            ExecInner::kick(this, sim);
        }
    }

    fn poll_fiber(this: &Rc<RefCell<ExecInner>>, sim: &mut Sim, id: FiberId) {
        let mut fiber = {
            let mut x = this.borrow_mut();
            debug_assert!(x.emit.ops.is_empty(), "emit buffer not flushed");
            x.current = Some(id);
            x.fibers[id].state = FiberState::Running;
            x.fibers[id].fiber.take().expect("fiber absent while polling")
        };
        let outcome = fiber.poll();
        {
            let mut x = this.borrow_mut();
            x.fibers[id].fiber = Some(fiber);
            match outcome {
                PollOutcome::Done => {
                    x.fibers[id].state = FiberState::Done;
                    x.policy.deregister(id);
                    x.live -= 1;
                }
                PollOutcome::Yielded => {
                    x.fibers[id].state = FiberState::Ready;
                    x.policy.make_ready(id);
                }
                PollOutcome::Blocked => {
                    x.fibers[id].state = FiberState::Blocked;
                    if std::mem::take(&mut x.fibers[id].sleeping) {
                        x.policy.make_sleeping(id);
                    } else {
                        x.policy.make_blocked(id);
                    }
                }
            }
        }
        ExecInner::flush(this, sim, id);
        ExecInner::kick(this, sim);
    }

    /// Flushes the polled fiber's buffered ops into the core in program
    /// order, resolving intra-batch dependencies.
    fn flush(this: &Rc<RefCell<ExecInner>>, sim: &mut Sim, id: FiberId) {
        let (core, mut buf) = {
            let mut x = this.borrow_mut();
            x.emit.slots = 0;
            if x.emit.ops.is_empty() {
                return;
            }
            (x.core.clone(), std::mem::take(&mut x.emit))
        };
        let EmitBuf { ops, deps, ids, op_deps, .. } = &mut buf;
        for b in ops.drain(..) {
            op_deps.clear();
            op_deps.extend(deps[b.deps].iter().map(|&d| match d {
                BufDep::Buffered(i) => ids[i],
                BufDep::Real(r) => r,
            }));
            let op = Op { on_complete: b.on_complete, ..Op::new(b.kind) };
            ids.push(Core::emit_after(&core, sim, op, op_deps));
        }
        deps.clear();
        // Rewrite the fiber's dependence state onto real op ids.
        let mut x = this.borrow_mut();
        let book = &mut x.fibers[id];
        for d in book.last_reads.iter_mut().chain(book.last_serial.iter_mut()) {
            if let BufDep::Buffered(i) = *d {
                *d = BufDep::Real(ids[i]);
            }
        }
        ids.clear();
        x.emit = buf;
    }

    fn on_swq_completion(this: &Rc<RefCell<ExecInner>>, sim: &mut Sim, tag: u64) {
        /// Completions closer together than this share one queue scan.
        const BURST_GAP: Span = Span::from_ns(200);
        let (core, cost, slot, fiber, value) = {
            let mut x = this.borrow_mut();
            let dataset = x.dataset.clone();
            let core = x.core.clone();
            let swq = x.swq.as_mut().expect("swq completion without swq state");
            // Drain the ring entry the device posted (the real polling).
            let polled = swq.qp.borrow_mut().poll_completion();
            debug_assert!(polled.is_some(), "completion ring empty at hook time");
            let now = sim.now();
            let fresh_scan = swq.last_completion == Time::MAX
                || now.saturating_since(swq.last_completion) > BURST_GAP;
            swq.last_completion = now;
            let mut cost = swq.costs.completion_each;
            if fresh_scan {
                cost += swq.costs.poll_scan;
            }
            let Some(p) = swq.pending.remove(&tag) else {
                // Tags are never reused, so an unknown tag is a duplicate
                // completion or a late arrival for an attempt the timeout
                // path already resolved. The host still pays to scan and
                // discard the entry, but nothing is delivered twice.
                swq.stale_completions.incr();
                x.tracer.instant(EventName::SwqStale, x.track, tag, 0);
                drop(x);
                Core::emit(&core, sim, Op::new(OpKind::SoftWork { span: cost }).profiled(EventName::CpuPoll));
                return;
            };
            // Real progress: after a quiet period, restore the optimized
            // doorbell mode a stall episode may have degraded.
            if let Some(rec) = swq.recovery.as_mut() {
                if rec.watchdog.on_progress(now) {
                    swq.qp.borrow_mut().set_doorbell_always(rec.base_doorbell_always);
                }
            }
            let value = dataset.borrow().read_u64(p.addr);
            x.tracer.instant(EventName::SwqDeliver, x.track, tag, p.fiber as u64);
            if let Some(c) = p.causal {
                x.tracer.complete_span(c.name, x.track, c.start, now, c.a0);
            }
            (core, cost, p.slot, p.fiber, value)
        };
        // The user-level scheduler's completion handling runs on the core.
        let this2 = this.clone();
        Core::emit(
            &core,
            sim,
            Op::new(OpKind::SoftWork { span: cost }).profiled(EventName::CpuPoll).on_complete(move |sim| {
                slot.set(value);
                ExecInner::wake(&this2, sim, fiber);
            }),
        );
    }

    /// Periodic expiry scan over outstanding SWQ requests. Timed-out
    /// attempts are re-enqueued with exponential backoff (and the doorbell
    /// forced, in case the device's doorbell-request flag was lost); after
    /// the retry budget is exhausted the request is failed over to the
    /// host-side copy of the data so the fiber always completes. Every
    /// timeout feeds the stall watchdog, which degrades the queue pair to
    /// doorbell-always mode until a quiet period passes.
    fn swq_check(this: &Rc<RefCell<ExecInner>>, sim: &mut Sim) {
        struct FailOver {
            slot: OneShot<u64>,
            fiber: FiberId,
            value: u64,
        }
        let now = sim.now();
        let mut fails: Vec<FailOver> = Vec::new();
        let mut retried: u64 = 0;
        let (core, ring_doorbell, costs, rearm, tracer, track) = {
            let mut x = this.borrow_mut();
            let core = x.core.clone();
            let dataset = x.dataset.clone();
            let tracer = x.tracer.clone();
            let track = x.track;
            let Some(swq) = x.swq.as_mut() else { return };
            let costs = swq.costs;
            let qp = swq.qp.clone();
            let ring_doorbell = swq.ring_doorbell.clone();
            let Some(rec) = swq.recovery.as_mut() else { return };
            rec.check_armed = false;
            if swq.pending.is_empty() {
                // Idle: the next issue re-arms the scan, so an otherwise
                // finished simulation is free to terminate.
                return;
            }
            let cfg = rec.cfg;
            // Sorted for determinism: HashMap iteration order is not stable
            // across runs.
            let mut expired: Vec<u64> = swq
                .pending
                .iter()
                .filter(|(_, p)| p.deadline <= now)
                .map(|(&t, _)| t)
                .collect();
            expired.sort_unstable();
            for tag in expired {
                swq.timeouts.incr();
                let p = swq.pending.get_mut(&tag).expect("expired tag is pending");
                tracer.instant(EventName::ReqTimeout, track, tag, p.retries as u64);
                if p.retries >= cfg.max_retries {
                    let p = swq.pending.remove(&tag).expect("expired tag is pending");
                    swq.failed.incr();
                    tracer.instant(EventName::ReqFailover, track, tag, p.retries as u64);
                    if let Some(c) = p.causal {
                        tracer.complete_span(c.name, track, c.start, now, c.a0);
                    }
                    // Fail over to the host's coherent copy of the line so
                    // the fiber completes instead of wedging the run.
                    let value = dataset.borrow().read_u64(p.addr);
                    fails.push(FailOver { slot: p.slot, fiber: p.fiber, value });
                } else {
                    p.retries += 1;
                    // Exponential backoff on the next deadline.
                    p.deadline = now + cfg.timeout * (1u64 << p.retries.min(16));
                    swq.retries_performed.incr();
                    tracer.instant(EventName::ReqRetry, track, tag, p.retries as u64);
                    retried += 1;
                    // Re-enqueue; if the ring is full the next scan round
                    // simply tries again. A duplicate service of the
                    // original descriptor is absorbed by tag dedup.
                    let _ = qp.borrow_mut().enqueue(Descriptor { read_addr: p.addr, tag });
                }
                if rec.watchdog.on_stall(now) {
                    qp.borrow_mut().set_doorbell_always(true);
                }
            }
            let rearm = if swq.pending.is_empty() {
                None
            } else {
                rec.check_armed = true;
                Some(cfg.check_interval)
            };
            (core, ring_doorbell, costs, rearm, tracer, track)
        };
        for f in fails {
            let this2 = this.clone();
            let cost = costs.completion_each + costs.poll_scan;
            Core::emit(
                &core,
                sim,
                Op::new(OpKind::SoftWork { span: cost }).profiled(EventName::CpuPoll).on_complete(move |sim| {
                    f.slot.set(f.value);
                    ExecInner::wake(&this2, sim, f.fiber);
                }),
            );
        }
        if retried > 0 {
            // The host pays for the re-enqueues and rings the doorbell
            // unconditionally once per round: if the fetcher's parked-state
            // flag write was lost, only an explicit ring restarts it.
            tracer.instant(EventName::ReqForceDoorbell, track, retried, 0);
            Core::emit(&core, sim, Op::new(OpKind::SoftWork { span: costs.enqueue_first * retried }));
            Core::emit(
                &core,
                sim,
                Op::new(OpKind::Mmio { cost: Span::from_ns(300) })
                    .on_complete(move |sim| ring_doorbell(sim)),
            );
        }
        if let Some(interval) = rearm {
            let this2 = this.clone();
            sim.schedule_in(interval, move |sim| ExecInner::swq_check(&this2, sim));
        }
    }
}

/// The memory/context handle a fiber uses for all timed operations — the
/// reproduction of the paper's `dev_access()` API.
pub struct MemCtx {
    exec: Rc<RefCell<ExecInner>>,
    fiber: FiberId,
    yield_flag: YieldFlag,
}

impl std::fmt::Debug for MemCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemCtx").field("fiber", &self.fiber).finish()
    }
}

impl MemCtx {
    /// The access mechanism this run uses (workloads adapt their inner loop,
    /// e.g. the on-demand microbenchmark uses the token API).
    pub fn mechanism(&self) -> Mechanism {
        self.exec.borrow().mechanism
    }

    /// Emits `insts` work instructions, dependent on the values of the most
    /// recent `dev_read` (and serialized after earlier work). Does not
    /// suspend: execution is tracked by the core model.
    pub fn work(&self, insts: u32) {
        if insts == 0 {
            return;
        }
        let mut x = self.exec.borrow_mut();
        let x = &mut *x;
        let book = &mut x.fibers[self.fiber];
        // The first chunk waits on the reads and the serial tail; each
        // later chunk on the one before it.
        let mut prev: Option<BufDep> = None;
        for n in kus_cpu::work_chunks(insts, 32) {
            let kind = OpKind::Work { insts: n };
            prev = Some(match prev {
                None => x.emit.push(kind, book.last_reads.drain(..).chain(book.last_serial), None),
                Some(p) => x.emit.push(kind, [p], None),
            });
        }
        book.last_serial = prev;
    }

    /// Current simulated time, read from the clock mirror the executor
    /// captures at [`Executor::start`] (zero before the run starts).
    ///
    /// Serving loops use this to timestamp request arrival, dispatch, and
    /// completion without access to the scheduler.
    pub fn now(&self) -> Time {
        self.exec.borrow().clock.get()
    }

    /// Suspends the fiber until simulated time `t` (resolving immediately
    /// if `t` is already past). The timer is anchored by a minimal
    /// serialized op, so program order is preserved: work buffered before
    /// the sleep lands before it.
    ///
    /// This is the traffic generator's pacing primitive: an open-loop
    /// arrival process sleeps to the next precomputed arrival instant, a
    /// closed-loop user sleeps out its think time.
    pub fn sleep_until(&self, t: Time) -> kus_fiber::OneShotFuture<u64> {
        let (slot, fut) = OneShot::new();
        let exec = self.exec.clone();
        let fiber = self.fiber;
        let serial = self.exec.borrow().fibers[self.fiber].last_serial;
        let dep = self.exec.borrow_mut().emit.push(
            // A 1 ps anchor: the fiber must suspend for the flush to emit
            // it, and its completion hook is the only place with a `&mut
            // Sim` to schedule the actual wake event.
            OpKind::SoftWork { span: Span::from_ps(1) },
            serial,
            Some(Box::new(move |sim: &mut Sim| {
                let wake = move |sim: &mut Sim| {
                    slot.set(sim.now().as_ps());
                    ExecInner::wake(&exec, sim, fiber);
                };
                if t <= sim.now() {
                    wake(sim);
                } else {
                    sim.schedule_at(t, wake);
                }
            })),
        );
        let mut x = self.exec.borrow_mut();
        x.fibers[self.fiber].last_serial = Some(dep);
        // Mark the imminent suspension as a timer wait so the scheduler
        // keeps this fiber off the run rotation until the wake fires.
        x.fibers[self.fiber].sleeping = true;
        drop(x);
        fut
    }

    /// Emits an application-level instant event (a `load.*`, `net.*` or
    /// `rpc.*` name) on this core's track. No-op when tracing is off.
    pub fn trace_instant(&self, name: EventName, a0: u64, a1: u64) {
        let x = self.exec.borrow();
        x.tracer.instant(name, x.track, a0, a1);
    }

    /// Emits an application-level complete-span event that started at
    /// `start` and ends now. No-op when tracing is off.
    pub fn trace_complete_since(&self, name: EventName, start: Time, a0: u64) {
        let x = self.exec.borrow();
        x.tracer.complete_since(name, x.track, start, a0);
    }

    /// Emits an application-level complete-span event over an explicit
    /// `[start, end]` interval (the end may lie in the simulated future,
    /// e.g. an egress span covering wire time that is still draining).
    /// No-op when tracing is off.
    pub fn trace_complete_span(&self, name: EventName, start: Time, end: Time, a0: u64) {
        let x = self.exec.borrow();
        x.tracer.complete_span(name, x.track, start, end, a0);
    }

    /// Whether this run records `class` (see [`Tracer::wants`]).
    pub fn wants(&self, class: TraceClass) -> bool {
        self.exec.borrow().tracer.wants(class)
    }

    /// Emits a fixed-duration stretch of host software (serialized).
    pub fn host_work(&self, span: Span) {
        if span.is_zero() {
            return;
        }
        let serial = self.exec.borrow().fibers[self.fiber].last_serial;
        let dep = self.exec.borrow_mut().emit.push(
            OpKind::SoftWork { span },
            serial,
            None,
        );
        self.exec.borrow_mut().fibers[self.fiber].last_serial = Some(dep);
    }

    /// Fault hook: this fiber crashes and respawns. The scheduling policy
    /// records the crash, a `fiber.crash` event marks
    /// the instant, and the returned future resolves once the respawn
    /// window `cost` has elapsed — the fiber sits off the run ring (as a
    /// timer-waiter) for the duration, exactly like a worker process
    /// being restarted. The caller re-queues whatever request the fiber
    /// held *before* awaiting.
    pub fn crash_respawn(&self, cost: Span) -> kus_fiber::OneShotFuture<u64> {
        let deadline = {
            let mut x = self.exec.borrow_mut();
            x.policy.on_crash(self.fiber);
            let (track, fiber) = (x.track, self.fiber as u64);
            x.tracer.instant(EventName::FiberCrash, track, fiber, cost.as_ps());
            x.clock.get() + cost
        };
        self.sleep_until(deadline)
    }

    /// Issues a load without consuming its value (the out-of-order window
    /// keeps running ahead); the next [`work`](Self::work) depends on it.
    /// Used by the on-demand microbenchmark, whose arithmetic does not steer
    /// control flow.
    pub fn load_issue(&self, addr: Addr) {
        let mut x = self.exec.borrow_mut();
        x.accesses.incr();
        // Deep event class: per-access volume.
        if x.tracer.wants(TraceClass::Deep) {
            x.tracer.instant(EventName::LoadIssue, x.track, addr.line().index(), self.fiber as u64);
        }
        let d = x.emit.push(OpKind::Load { line: addr.line() }, [], None);
        x.fibers[self.fiber].last_reads.push(d);
    }

    /// Suspends until the core frontend can absorb more ops (models the
    /// finite fetch/dispatch window; prevents a fiber from running
    /// unboundedly ahead of the machine).
    pub fn frontend(&self) -> FrontendFuture {
        FrontendFuture { ctx_exec: self.exec.clone(), fiber: self.fiber }
    }

    /// Writes a `u64` to the dataset — the write direction the paper leaves
    /// to future work (§VII) and argues is the easy one: "writes do not
    /// have return values, are often off the critical path, and do not
    /// prevent context switching by blocking at the head of the reorder
    /// buffer". The store is *posted*: the fiber continues immediately; the
    /// core drains it through its write buffer and the platform carries it
    /// to the device as an MMIO write.
    ///
    /// The store depends on the values of the most recent `dev_read` (it
    /// typically writes a computed result) but nothing ever waits on it.
    ///
    /// # Panics
    ///
    /// Panics under [`Mechanism::SoftwareQueue`]: the paper argues (§V-C)
    /// that software-queue writes forfeit hardware cache coherence and
    /// remain an open programmability problem, so they are not modelled.
    pub fn dev_write_u64(&self, addr: Addr, v: u64) {
        let mut x = self.exec.borrow_mut();
        assert!(
            x.mechanism != Mechanism::SoftwareQueue,
            "software-queue writes are not modelled (paper §V-C)"
        );
        x.writes.incr();
        // Program-order contents update; timing is tracked by the op.
        x.dataset.borrow_mut().write_u64(addr, v);
        let x = &mut *x;
        let book = &x.fibers[self.fiber];
        x.emit.push(OpKind::Store { line: addr.line() }, book.last_reads.iter().copied().chain(book.last_serial), None);
    }

    /// Reads another word of a line a preceding `dev_read` already brought
    /// close to the core. Under the memory-mapped mechanisms this is an L1
    /// hit on the just-filled line; under the software queues it reads the
    /// response buffer the device DMA-wrote into host DRAM (a DRAM-latency
    /// miss for the first extra word, L1 hits for the rest). The value is
    /// available to the program immediately; the dependent-work chain is
    /// extended through [`work`](Self::work).
    pub fn l1_read_u64(&self, addr: Addr) -> u64 {
        let mut x = self.exec.borrow_mut();
        let d = x.emit.push(OpKind::Load { line: addr.line() }, [], None);
        if x.tracer.wants(TraceClass::Deep) {
            x.tracer.instant(EventName::L1Read, x.track, addr.line().index(), self.fiber as u64);
        }
        x.fibers[self.fiber].last_reads.push(d);
        let v = x.dataset.borrow().read_u64(addr);
        v
    }

    /// The paper's `dev_access(uint64*)`: reads a `u64` from the dataset
    /// through the configured mechanism, returning when the value is
    /// available to the fiber.
    pub async fn dev_read_u64(&self, addr: Addr) -> u64 {
        self.dev_read_batch(&[addr]).await[0]
    }

    /// Batched `dev_access`: issues all reads before overlapping them — the
    /// paper's manual-MLP batching ("we modify the code to perform a single
    /// context switch after issuing multiple prefetches").
    pub async fn dev_read_batch(&self, addrs: &[Addr]) -> Vec<u64> {
        self.dev_read_batch_inner(addrs, None).await
    }

    /// [`dev_read_batch`](Self::dev_read_batch) with causal child spans:
    /// when the causal layer is enabled, element `i` additionally leaves a
    /// `name` [`Phase::Complete`](kus_sim::Phase::Complete) span with
    /// `a0 = a0_base + i` covering issue → value availability (the physical
    /// completion callback for callback-completing paths; the observing
    /// load for an already-filled prefetch line). Scheduling is identical
    /// to the untagged batch in every mechanism — the tag only emits.
    pub async fn dev_read_batch_spans(&self, addrs: &[Addr], name: EventName, a0_base: u64) -> Vec<u64> {
        let causal = self.wants(TraceClass::Causal);
        self.dev_read_batch_inner(addrs, causal.then_some((name, a0_base))).await
    }

    async fn dev_read_batch_inner(&self, addrs: &[Addr], causal: Option<(EventName, u64)>) -> Vec<u64> {
        let mechanism = {
            let mut x = self.exec.borrow_mut();
            x.accesses.add(addrs.len() as u64);
            if x.tracer.wants(TraceClass::Deep) {
                let first = addrs.first().map_or(0, |a| a.line().index());
                x.tracer.instant(EventName::DevReadBatch, x.track, first, addrs.len() as u64);
            }
            x.mechanism
        };
        let tag = |i: usize| {
            causal.map(|(name, a0_base)| CausalSpan { name, a0: a0_base + i as u64, start: self.now() })
        };
        match mechanism {
            Mechanism::OnDemand => {
                let futs: Vec<_> =
                    addrs.iter().enumerate().map(|(i, &a)| self.issue_load_value(a, tag(i))).collect();
                let mut out = Vec::with_capacity(futs.len());
                for f in futs {
                    out.push(f.await);
                }
                out
            }
            Mechanism::Prefetch => {
                for &a in addrs {
                    self.exec.borrow_mut().emit.push(OpKind::Prefetch { line: a.line() }, [], None);
                }
                yield_now(&self.yield_flag).await;
                let mut out = Vec::with_capacity(addrs.len());
                for (i, &a) in addrs.iter().enumerate() {
                    out.push(self.prefetched_load(a, tag(i)).await);
                }
                out
            }
            Mechanism::SoftwareQueue => {
                let futs: Vec<_> = addrs
                    .iter()
                    .enumerate()
                    .map(|(i, &a)| self.swq_issue(a, i == 0, tag(i)))
                    .collect();
                let mut out = Vec::with_capacity(futs.len());
                for f in futs {
                    out.push(f.await);
                }
                out
            }
        }
    }

    /// On-demand load with value delivery (the access was already counted
    /// by the `dev_read` entry point). A causal tag closes its span in the
    /// completion callback — the true fill-arrival instant.
    fn issue_load_value(&self, addr: Addr, causal: Option<CausalSpan>) -> kus_fiber::OneShotFuture<u64> {
        let (slot, fut) = OneShot::new();
        let exec = self.exec.clone();
        let fiber = self.fiber;
        let d = self.exec.borrow_mut().emit.push(
            OpKind::Load { line: addr.line() },
            [],
            Some(Box::new(move |sim: &mut Sim| {
                let value = {
                    let x = exec.borrow();
                    if let Some(c) = causal {
                        x.tracer.complete_span(c.name, x.track, c.start, sim.now(), c.a0);
                    }
                    let v = x.dataset.borrow().read_u64(addr);
                    v
                };
                slot.set(value);
                ExecInner::wake(&exec, sim, fiber);
            })),
        );
        self.exec.borrow_mut().fibers[self.fiber].last_reads.push(d);
        fut
    }

    /// The load after a prefetch+yield. If the line already arrived in the
    /// L1, the value is available without suspending (a pipelined 4-cycle
    /// hit); otherwise the load merges into the pending fill and the fiber
    /// waits like hardware would. A causal tag closes on the hit path at
    /// the observing load (the fill beat the fiber back — availability is
    /// bounded by the observation instant) and on the miss path in the
    /// fill-completion callback.
    async fn prefetched_load(&self, addr: Addr, causal: Option<CausalSpan>) -> u64 {
        let in_l1 = {
            let x = self.exec.borrow();
            let hit = x.core.borrow().l1().probe(addr.line());
            hit
        };
        if in_l1 {
            let mut x = self.exec.borrow_mut();
            let d = x.emit.push(OpKind::Load { line: addr.line() }, [], None);
            x.fibers[self.fiber].last_reads.push(d);
            if let Some(c) = causal {
                let now = x.clock.get();
                x.tracer.complete_span(c.name, x.track, c.start, now, c.a0);
            }
            let value = x.dataset.borrow().read_u64(addr);
            value
        } else {
            self.issue_load_value(addr, causal).await
        }
    }

    /// Software-queue read: pay the enqueue cost (cheaper for descriptors
    /// after the first of a batch — the ring is hot), let the device do the
    /// rest, and wait for the completion to be polled.
    fn swq_issue(&self, addr: Addr, first_of_batch: bool, causal: Option<CausalSpan>) -> kus_fiber::OneShotFuture<u64> {
        let (slot, fut) = OneShot::new();
        let serial = self.exec.borrow().fibers[self.fiber].last_serial;
        let (tag, enqueue_cost) = {
            let mut x = self.exec.borrow_mut();
            let fiber = self.fiber;
            let swq = x.swq.as_mut().expect("software-queue mechanism without swq state");
            let tag = swq.next_tag;
            swq.next_tag += 1;
            swq.pending.insert(
                tag,
                SwqPending { slot, fiber, addr, causal, deadline: Time::MAX, retries: 0 },
            );
            let cost = if first_of_batch { swq.costs.enqueue_first } else { swq.costs.enqueue_next };
            x.tracer.instant(EventName::SwqIssue, x.track, tag, fiber as u64);
            (tag, cost)
        };
        let exec = self.exec.clone();
        let dep = self.exec.borrow_mut().emit.push(
            OpKind::SoftWork { span: enqueue_cost },
            serial,
            Some(Box::new(move |sim: &mut Sim| {
                let (qp, ring_doorbell, core, arm_check, tracer, track) = {
                    let mut x = exec.borrow_mut();
                    let core = x.core.clone();
                    let tracer = x.tracer.clone();
                    let track = x.track;
                    let swq = x.swq.as_mut().expect("swq state");
                    let mut arm_check = None;
                    if let Some(rec) = swq.recovery.as_mut() {
                        // The attempt starts now that the descriptor is in
                        // the ring; the expiry scan self-disarms when idle.
                        if let Some(p) = swq.pending.get_mut(&tag) {
                            p.deadline = sim.now() + rec.cfg.timeout;
                        }
                        if !rec.check_armed {
                            rec.check_armed = true;
                            arm_check = Some(rec.cfg.check_interval);
                        }
                    }
                    (swq.qp.clone(), swq.ring_doorbell.clone(), core, arm_check, tracer, track)
                };
                if let Some(interval) = arm_check {
                    let exec2 = exec.clone();
                    sim.schedule_in(interval, move |sim| ExecInner::swq_check(&exec2, sim));
                }
                let rang = qp
                    .borrow_mut()
                    .enqueue(Descriptor { read_addr: addr, tag })
                    .expect("request ring full: raise swq_ring_capacity");
                tracer.instant(EventName::SwqEnqueue, track, tag, qp.borrow().pending_requests() as u64);
                if rang {
                    tracer.instant(EventName::SwqDoorbell, track, tag, 0);
                    // The MMIO doorbell write: expensive, uncached, and then
                    // the write reaches the device's doorbell register.
                    Core::emit(
                        &core,
                        sim,
                        Op::new(OpKind::Mmio { cost: Span::from_ns(300) })
                            .on_complete(move |sim| ring_doorbell(sim)),
                    );
                }
            })),
        );
        self.exec.borrow_mut().fibers[self.fiber].last_serial = Some(dep);
        fut
    }
}

/// Future returned by [`MemCtx::frontend`].
pub struct FrontendFuture {
    ctx_exec: Rc<RefCell<ExecInner>>,
    fiber: FiberId,
}

impl Future for FrontendFuture {
    type Output = ();
    fn poll(self: Pin<&mut Self>, _cx: &mut std::task::Context<'_>) -> std::task::Poll<()> {
        let mut x = self.ctx_exec.borrow_mut();
        let queued = {
            let c = x.core.borrow();
            let more = c.wants_more();
            let low_water = c.config().emit_low_water_slots;
            (more, low_water)
        };
        let (wants, low_water) = queued;
        if wants && x.emit.slots < low_water {
            std::task::Poll::Ready(())
        } else {
            let fiber = self.fiber;
            x.fibers[fiber].wants_frontend = true;
            std::task::Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kus_cpu::CoreConfig;
    use kus_fiber::{Fifo, RoundRobin};
    use kus_mem::uncore::CreditQueue;
    use kus_sim::{Sim, Time};
    use std::cell::Cell;

    fn fixed_fill(latency: Span) -> kus_cpu::FillPath {
        Rc::new(move |sim: &mut Sim, _c, _l, done: Callback| {
            sim.schedule_callback_in(latency, done);
        })
    }

    fn dataset_with_values(n: u64) -> Rc<RefCell<ByteStore>> {
        let mut s = ByteStore::new((n * 64) as usize);
        for i in 0..n {
            s.write_u64(Addr::new(i * 64), i * 7);
        }
        Rc::new(RefCell::new(s))
    }

    fn executor(mech: Mechanism, fill_latency: Span) -> (Sim, Executor, Rc<RefCell<Core>>) {
        let sim = Sim::new();
        let credits = Rc::new(RefCell::new(CreditQueue::new("t", 14)));
        let core = Core::new(0, CoreConfig::default(), credits, fixed_fill(fill_latency));
        let dataset = dataset_with_values(4096);
        let policy: Box<dyn SchedPolicy> = match mech {
            Mechanism::SoftwareQueue => Box::new(Fifo::new()),
            _ => Box::new(RoundRobin::new()),
        };
        let exec = Executor::new(core.clone(), mech, dataset, policy, Span::from_ns(35));
        (sim, exec, core)
    }

    #[test]
    fn on_demand_read_returns_value_after_fill() {
        let (mut sim, exec, _) = executor(Mechanism::OnDemand, Span::from_us(1));
        let got = Rc::new(Cell::new(0u64));
        let g = got.clone();
        exec.spawn(move |ctx| async move {
            let v = ctx.dev_read_u64(Addr::new(5 * 64)).await;
            g.set(v);
        });
        exec.start(&mut sim);
        sim.run();
        assert_eq!(got.get(), 35);
        assert!(sim.now().as_ns() >= 1000);
        assert_eq!(exec.accesses(), 1);
        assert_eq!(exec.live(), 0);
    }

    #[test]
    fn prefetch_fibers_overlap_accesses() {
        let (mut sim, exec, _) = executor(Mechanism::Prefetch, Span::from_us(1));
        const FIBERS: usize = 5;
        const ITERS: usize = 10;
        for f in 0..FIBERS {
            exec.spawn(move |ctx| async move {
                for i in 0..ITERS {
                    let a = Addr::new(((f * ITERS + i) * 64) as u64);
                    let _ = ctx.dev_read_u64(a).await;
                    ctx.work(100);
                }
            });
        }
        exec.start(&mut sim);
        sim.run();
        // 50 sequential 1 us accesses would take 50 us; 5-way overlap cuts
        // that towards ~10 us (plus work and switches).
        let total = sim.now().as_us_f64();
        assert!(total < 15.0, "took {total}us");
        assert!(total > 9.0, "suspiciously fast: {total}us");
        assert_eq!(exec.accesses(), (FIBERS * ITERS) as u64);
    }

    #[test]
    fn on_demand_single_fiber_is_serial() {
        let (mut sim, exec, _) = executor(Mechanism::OnDemand, Span::from_us(1));
        exec.spawn(move |ctx| async move {
            for i in 0..10u64 {
                let _ = ctx.dev_read_u64(Addr::new(i * 64)).await;
                ctx.work(100);
            }
        });
        exec.start(&mut sim);
        sim.run();
        // Value-dependent issue: ~10 us of pure latency.
        assert!(sim.now().as_us_f64() >= 10.0, "took {}", sim.now().as_us_f64());
    }

    #[test]
    fn token_api_overlaps_within_rob() {
        let (mut sim, exec, core) = executor(Mechanism::OnDemand, Span::from_us(1));
        exec.spawn(move |ctx| async move {
            for i in 0..10u64 {
                ctx.load_issue(Addr::new(i * 64));
                ctx.work(50);
                ctx.frontend().await;
            }
        });
        exec.start(&mut sim);
        sim.run();
        // Iterations of ~51 slots in a 192-slot ROB: ~3-way load overlap,
        // so ~10/3 serialized microseconds, clearly below 10.
        let total = sim.now().as_us_f64();
        assert!(total < 5.0, "took {total}us");
        assert_eq!(core.borrow().retired_work_insts.get(), 500);
    }

    #[test]
    fn work_depends_on_read_value() {
        let (mut sim, exec, core) = executor(Mechanism::OnDemand, Span::from_us(2));
        exec.spawn(move |ctx| async move {
            let _ = ctx.dev_read_u64(Addr::new(0)).await;
            ctx.work(140);
        });
        exec.start(&mut sim);
        sim.run();
        // 2 us fill + 100 cycles work at 2.3 GHz (~43.5 ns).
        assert!(sim.now().as_ns() >= 2040, "took {}", sim.now().as_ns());
        assert_eq!(core.borrow().retired_work_insts.get(), 140);
    }

    #[test]
    fn round_robin_switch_costs_accumulate() {
        let (mut sim, exec, _) = executor(Mechanism::Prefetch, Span::from_ns(100));
        for f in 0..4usize {
            exec.spawn(move |ctx| async move {
                for i in 0..5 {
                    let a = Addr::new(((f * 5 + i) * 64) as u64);
                    let _ = ctx.dev_read_u64(a).await;
                    ctx.work(10);
                }
            });
        }
        exec.start(&mut sim);
        sim.run();
        assert!(exec.switches() >= 20, "switches: {}", exec.switches());
    }

    #[test]
    fn sleep_until_wakes_at_target_time() {
        let (mut sim, exec, _) = executor(Mechanism::OnDemand, Span::from_us(1));
        let woke = Rc::new(Cell::new((0u64, 0u64)));
        let w = woke.clone();
        exec.spawn(move |ctx| async move {
            // First poll lands after the initial context switch, not at 0.
            assert!(ctx.now() < Time::ZERO + Span::from_ns(100));
            let target = Time::ZERO + Span::from_us(3);
            ctx.sleep_until(target).await;
            // Already-past targets resolve without waiting further.
            ctx.sleep_until(Time::ZERO + Span::from_ns(1)).await;
            w.set((ctx.now().as_ps(), target.as_ps()));
        });
        exec.start(&mut sim);
        sim.run();
        let (woke_at, target) = woke.get();
        assert!(woke_at >= target, "woke at {woke_at} before {target}");
        // The anchor op plus scheduling adds at most a handful of ns.
        assert!(woke_at < target + Span::from_ns(100).as_ps(), "woke late: {woke_at}");
    }

    #[test]
    fn sleeps_interleave_with_loads_deterministically() {
        let run = || {
            let (mut sim, exec, _) = executor(Mechanism::Prefetch, Span::from_us(1));
            for f in 0..3usize {
                exec.spawn(move |ctx| async move {
                    for i in 0..5u64 {
                        let t = ctx.now() + Span::from_ns(400 * (f as u64 + 1));
                        ctx.sleep_until(t).await;
                        let _ = ctx.dev_read_u64(Addr::new((f as u64 * 8 + i) * 64)).await;
                    }
                });
            }
            exec.start(&mut sim);
            sim.run();
            (sim.now().as_ps(), exec.switches())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn deterministic() {
        let run = || {
            let (mut sim, exec, core) = executor(Mechanism::Prefetch, Span::from_us(1));
            for f in 0..3usize {
                exec.spawn(move |ctx| async move {
                    for i in 0..20 {
                        let a = Addr::new(((f * 100 + i) * 64) as u64);
                        let _ = ctx.dev_read_u64(a).await;
                        ctx.work(77);
                    }
                });
            }
            exec.start(&mut sim);
            sim.run();
            let r = (sim.now().as_ps(), core.borrow().retired_work_insts.get(), exec.switches());
            r
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn batch_reads_share_one_yield() {
        let (mut sim, exec, _) = executor(Mechanism::Prefetch, Span::from_us(1));
        let t = Rc::new(Cell::new(0u64));
        let t2 = t.clone();
        exec.spawn(move |ctx| async move {
            let addrs: Vec<Addr> = (0..4).map(|i| Addr::new(i * 64)).collect();
            let vs = ctx.dev_read_batch(&addrs).await;
            assert_eq!(vs, vec![0, 7, 14, 21]);
            t2.set(1);
        });
        exec.start(&mut sim);
        sim.run();
        assert_eq!(t.get(), 1);
        // All four overlapped: ~1 us, not 4.
        assert!(sim.now().as_us_f64() < 1.5, "took {}", sim.now().as_us_f64());
    }

    #[test]
    fn fifo_policy_runs_swq_fibers() {
        // Minimal swq smoke test with a loop-back "device": completions are
        // delivered directly by a stub that echoes after a delay.
        let (mut sim, exec, core) = executor(Mechanism::SoftwareQueue, Span::from_us(1));
        let qp = Rc::new(RefCell::new(QueuePair::new(64)));
        let hook = exec.swq_completion_hook();
        // Stub device: when the doorbell rings, drain bursts every 500 ns.
        let qp2 = qp.clone();
        let ring: Rc<dyn Fn(&mut Sim)> = Rc::new(move |sim: &mut Sim| {
            let qp = qp2.clone();
            let hook = hook.clone();
            fn pump(
                qp: Rc<RefCell<QueuePair>>,
                hook: TagHook,
                sim: &mut Sim,
            ) {
                let burst = qp.borrow_mut().fetch_burst();
                if burst.is_empty() {
                    return;
                }
                for d in &burst {
                    qp.borrow_mut()
                        .post_completion(kus_swq::descriptor::Completion { tag: d.tag });
                }
                let tags: Vec<u64> = burst.iter().map(|d| d.tag).collect();
                let qp2 = qp.clone();
                let hook2 = hook.clone();
                sim.schedule_in(Span::from_ns(500), move |sim| {
                    for t in tags {
                        hook2(sim, t);
                    }
                    pump(qp2, hook2, sim);
                });
            }
            pump(qp.clone(), hook.clone(), sim);
        });
        exec.set_swq(SwqState::new(qp, SwqCosts::optimized(), ring));
        let sum = Rc::new(Cell::new(0u64));
        for f in 0..3u64 {
            let s = sum.clone();
            exec.spawn(move |ctx| async move {
                for i in 0..4u64 {
                    let v = ctx.dev_read_u64(Addr::new((f * 4 + i) * 64)).await;
                    s.set(s.get() + v);
                    ctx.work(50);
                }
            });
        }
        exec.start(&mut sim);
        sim.set_horizon(Time::ZERO + Span::from_us(500));
        let outcome = sim.run();
        assert_eq!(exec.live(), 0, "all fibers finished ({outcome:?})");
        // sum of 7*i for i in 0..12
        assert_eq!(sum.get(), 7 * (0..12u64).sum::<u64>());
        assert!(core.borrow().retired_work_insts.get() >= 600);
    }
}
