//! The out-of-order core model.
//!
//! An event-driven pipeline with the structural limits the paper's analysis
//! turns on, and nothing else:
//!
//! - **In-order dispatch** into a finite reorder buffer (default 192 slots)
//!   at a finite width (default 4/cycle). A blocked op at the ROB head
//!   stalls retirement and eventually dispatch — the on-demand pathology of
//!   Fig. 2.
//! - **Dataflow issue**: an op begins executing when all its dependence
//!   edges have resolved.
//! - **A per-core [`LfbPool`]** bounding outstanding misses (default 10).
//!   Loads to a pending line merge (MSHR semantics); prefetches retire on
//!   issue and fill in the background.
//! - **A shared [`CreditQueue`]** modelling the chip-level queue on the path
//!   to the dataset's backing store (14 entries to the device, ≥48 to DRAM).
//!
//! The core does not know what is on the other side of a miss: the platform
//! injects a [`FillPath`] closure that carries a line fill to the device or
//! DRAM model and calls back when data returns.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use kus_mem::cache::SetAssocCache;
use kus_mem::lfb::LfbPool;
use kus_mem::uncore::CreditQueue;
use kus_mem::LineAddr;
use kus_sim::event::EventFn;
use kus_sim::stats::Counter;
use kus_sim::trace::{Category, TraceClass};
use kus_sim::{Clock, Sim, Span, Time};

use crate::ops::{Op, OpId, OpKind};

/// Carries a line fill to the backing store; the callback fires when the
/// line's data arrives at this core's cache boundary.
pub type FillPath = Rc<dyn Fn(&mut Sim, usize, LineAddr, EventFn)>;

/// Carries a posted store towards the backing store (fire-and-forget).
pub type StorePath = Rc<dyn Fn(&mut Sim, usize, LineAddr)>;

/// Structural configuration of a core.
#[derive(Debug, Clone, Copy)]
pub struct CoreConfig {
    /// Core clock.
    pub clock: Clock,
    /// Reorder-buffer capacity in instruction slots, at most
    /// [`CoreConfig::MAX_ROB_SLOTS`].
    pub rob_slots: u32,
    /// Dispatch width (instructions per cycle into the ROB).
    pub dispatch_width: u32,
    /// Sustained IPC of the dependent work loop.
    pub work_ipc: f64,
    /// L1 hit latency in cycles.
    pub l1_hit_cycles: u32,
    /// Line fill buffers (outstanding misses) per core.
    pub lfb_count: usize,
    /// Emit-hook low-water mark: when queued-but-undispatched slots drop
    /// below this, the frontend asks for more ops.
    pub emit_low_water_slots: u32,
}

impl CoreConfig {
    /// The largest ROB a core models. A core prices every op size its ROB
    /// admits once, in tables as long as the ROB.
    pub const MAX_ROB_SLOTS: u32 = 4096;

    /// The reproduced host: Xeon E5-2670v3 (Haswell) at 2.3 GHz, 192-entry
    /// ROB, 4-wide, work IPC 1.4, 4-cycle L1, 10 LFBs.
    pub fn xeon_e5_2670v3() -> CoreConfig {
        CoreConfig {
            clock: Clock::XEON_E5_2670V3,
            rob_slots: 192,
            dispatch_width: 4,
            work_ipc: 1.4,
            l1_hit_cycles: 4,
            lfb_count: LfbPool::XEON_LFB_COUNT,
            emit_low_water_slots: 192,
        }
    }
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        CoreConfig::xeon_e5_2670v3()
    }
}

/// The end of an edge list (and the empty list's head).
const NIL: u32 = u32::MAX;

/// One "`to` waits on this op" edge in the core's [`EdgePool`].
#[derive(Clone, Copy)]
struct Edge {
    to: OpId,
    next: u32,
}

/// An op's dependents: a FIFO list threaded through the [`EdgePool`].
#[derive(Clone, Copy)]
struct EdgeList {
    head: u32,
    tail: u32,
}

impl EdgeList {
    const EMPTY: EdgeList = EdgeList { head: NIL, tail: NIL };
}

/// Every op's dependence edges in one vector, recycled through a freelist.
struct EdgePool {
    edges: Vec<Edge>,
    free: u32,
}

impl EdgePool {
    /// Appends `to` to `list`, keeping emit order.
    fn push(&mut self, list: &mut EdgeList, to: OpId) {
        let edge = Edge { to, next: NIL };
        let e = if self.free == NIL {
            self.edges.push(edge);
            (self.edges.len() - 1) as u32
        } else {
            let e = self.free;
            self.free = self.edges[e as usize].next;
            self.edges[e as usize] = edge;
            e
        };
        match list.tail {
            NIL => list.head = e,
            t => self.edges[t as usize].next = e,
        }
        list.tail = e;
    }

    /// Returns a whole list to the freelist.
    fn release(&mut self, list: EdgeList) {
        if list.head != NIL {
            self.edges[list.tail as usize].next = self.free;
            self.free = list.head;
        }
    }
}

/// `Clock::work(n, ipc)` for every `n` in `0..=max`: the calls the pipeline
/// would make per op, made once per core.
fn span_table(clock: Clock, ipc: f64, max: u32) -> Box<[Span]> {
    (0..=max).map(|n| clock.work(n as u64, ipc)).collect()
}

struct OpState {
    kind: OpKind,
    on_complete: Option<EventFn>,
    pending_deps: u32,
    dependents: EdgeList,
    done: bool,
    counted: bool,
    profile: Option<&'static str>,
}

/// One modelled core.
pub struct Core {
    id: usize,
    config: CoreConfig,
    l1: SetAssocCache,
    lfb: Rc<RefCell<LfbPool>>,
    credits: Rc<RefCell<CreditQueue>>,
    fill: FillPath,
    store_path: Option<StorePath>,
    /// Every unretired op, indexed by `id - base`. Ops are emitted,
    /// dispatched and retired in id order, so the ROB is the id range
    /// `[base, next_dispatch)` and the dispatch queue the rest.
    window: VecDeque<OpState>,
    /// The oldest unretired op; every id below it has retired.
    base: OpId,
    next_dispatch: OpId,
    edges: EdgePool,
    queued_slots: u32,
    rob_used: u32,
    /// Scratch for the dependents one completion makes ready.
    ready: Vec<OpId>,
    /// Frontend time to dispatch an op, indexed by its slots.
    dispatch_cost: Box<[Span]>,
    /// Execution time of a work chunk, indexed by its instruction count.
    work_span: Box<[Span]>,
    frontend_free: Time,
    /// Runtime software (queue management, MMIO sequences) is a serial
    /// resource: it is literally instructions of the core's one instruction
    /// stream, so concurrent fibers' `SoftWork`/`Mmio` ops may not overlap.
    soft_busy_until: Time,
    pump_scheduled: bool,
    emit_hook: Option<EventFn>,
    tracer: kus_sim::Tracer,
    /// Work-loop instructions retired.
    pub retired_work_insts: Counter,
    /// Ops retired.
    pub retired_ops: Counter,
    /// Demand loads executed.
    pub loads: Counter,
    /// Posted stores executed.
    pub stores: Counter,
    /// Software prefetches executed.
    pub prefetches: Counter,
    /// Loads that merged into a pending LFB entry.
    pub load_merges: Counter,
    /// Software prefetches dropped because every LFB was in use (x86
    /// prefetch hints are non-binding: they are silently discarded under
    /// MSHR pressure, and the later demand load pays the full latency).
    pub dropped_prefetches: Counter,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("rob_used", &self.rob_used)
            .field("queued", &self.queued_ops())
            .field("retired_ops", &self.retired_ops.get())
            .finish()
    }
}

impl Core {
    /// Creates a core routing misses through `credits` and `fill`, wrapped
    /// for shared use.
    ///
    /// # Panics
    ///
    /// Panics if the ROB exceeds [`CoreConfig::MAX_ROB_SLOTS`].
    pub fn new(
        id: usize,
        config: CoreConfig,
        credits: Rc<RefCell<CreditQueue>>,
        fill: FillPath,
    ) -> Rc<RefCell<Core>> {
        let lfb = Rc::new(RefCell::new(LfbPool::new(config.lfb_count)));
        Core::with_lfb(id, config, credits, fill, lfb)
    }

    /// Creates a core sharing an existing LFB pool — how SMT siblings are
    /// modelled: two hardware contexts partition the ROB and frontend but
    /// compete for the same miss-tracking buffers.
    ///
    /// # Panics
    ///
    /// Panics if the ROB exceeds [`CoreConfig::MAX_ROB_SLOTS`].
    pub fn with_lfb(
        id: usize,
        config: CoreConfig,
        credits: Rc<RefCell<CreditQueue>>,
        fill: FillPath,
        lfb: Rc<RefCell<LfbPool>>,
    ) -> Rc<RefCell<Core>> {
        let max = CoreConfig::MAX_ROB_SLOTS;
        assert!(config.rob_slots <= max, "a ROB of {} slots exceeds {max}", config.rob_slots);
        Rc::new(RefCell::new(Core {
            id,
            config,
            l1: SetAssocCache::l1d_default(),
            lfb,
            credits,
            fill,
            store_path: None,
            window: VecDeque::new(),
            base: 0,
            next_dispatch: 0,
            edges: EdgePool { edges: Vec::new(), free: NIL },
            queued_slots: 0,
            rob_used: 0,
            ready: Vec::new(),
            dispatch_cost: span_table(config.clock, config.dispatch_width as f64, config.rob_slots),
            work_span: span_table(config.clock, config.work_ipc, config.rob_slots),
            frontend_free: Time::ZERO,
            soft_busy_until: Time::ZERO,
            pump_scheduled: false,
            emit_hook: None,
            tracer: kus_sim::Tracer::off(),
            retired_work_insts: Counter::default(),
            retired_ops: Counter::default(),
            loads: Counter::default(),
            stores: Counter::default(),
            prefetches: Counter::default(),
            load_merges: Counter::default(),
            dropped_prefetches: Counter::default(),
        }))
    }

    /// This core's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Installs the path posted stores take towards the backing store
    /// (e.g., an MMIO write TLP to the device). Stores complete locally
    /// either way; without a path the downstream write is silently local.
    pub fn set_store_path(&mut self, p: StorePath) {
        self.store_path = Some(p);
    }

    /// The core's configuration.
    pub fn config(&self) -> CoreConfig {
        self.config
    }

    /// The LFB pool (for occupancy statistics; shared among SMT siblings).
    pub fn lfb(&self) -> Rc<RefCell<LfbPool>> {
        self.lfb.clone()
    }

    /// The L1 cache model (for hit/miss statistics).
    pub fn l1(&self) -> &SetAssocCache {
        &self.l1
    }

    /// Attaches a tracer to the core's cache structures (L1 evictions and
    /// the LFB pool), tracked under this core's id. The core keeps a copy
    /// for the profiler's cycle-accounting spans (`cpu.work`, `cpu.soft`,
    /// `cpu.lfbwait`), emitted only when the tracer wants `TraceClass::Profile`.
    pub fn set_tracer(&mut self, tracer: kus_sim::Tracer) {
        self.tracer = tracer.clone();
        self.l1.set_tracer(tracer.clone(), self.id as u32);
        self.lfb.borrow_mut().set_tracer(tracer, self.id as u32);
    }

    /// Whether the frontend wants more ops (used for fiber back-pressure).
    pub fn wants_more(&self) -> bool {
        self.queued_slots < self.config.emit_low_water_slots
    }

    /// Ops currently anywhere in the pipeline (queued or in the ROB).
    pub fn in_flight(&self) -> usize {
        self.window.len()
    }

    /// The window entry of unretired op `id`.
    fn op(&self, id: OpId) -> &OpState {
        &self.window[(id - self.base) as usize]
    }

    fn op_mut(&mut self, id: OpId) -> &mut OpState {
        &mut self.window[(id - self.base) as usize]
    }

    /// Ops emitted but not yet dispatched.
    fn queued_ops(&self) -> usize {
        self.window.len() - (self.next_dispatch - self.base) as usize
    }

    /// A multi-line diagnostic snapshot of the pipeline (stall debugging).
    pub fn debug_dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "core {}: rob_used={} queued_slots={} dispatch_q={} lfb={}/{} lfb_waiters={} credits={:?}",
            self.id,
            self.rob_used,
            self.queued_slots,
            self.queued_ops(),
            self.lfb.borrow().in_use(),
            self.lfb.borrow().capacity(),
            self.lfb.borrow().waiting(),
            self.credits.borrow(),
        );
        for (i, id) in (self.base..self.next_dispatch).take(5).enumerate() {
            let st = self.op(id);
            let _ = writeln!(
                out,
                "  rob[{i}] op{} {:?} done={} pending_deps={}",
                id, st.kind, st.done, st.pending_deps
            );
        }
        if self.queued_ops() > 0 {
            let (front, st) = (self.next_dispatch, self.op(self.next_dispatch));
            let _ = writeln!(out, "  dispatch_q front: op{} {:?} slots={}", front, st.kind, st.kind.slots());
        }
        out
    }

    /// Registers a one-shot hook fired when the frontend next wants more
    /// ops. If it wants more already, the hook fires on the next event.
    ///
    /// # Panics
    ///
    /// Panics if a hook is already armed (each core has one emitter).
    pub fn set_emit_hook(this: &Rc<RefCell<Core>>, sim: &mut Sim, f: impl FnOnce(&mut Sim) + 'static) {
        {
            let mut c = this.borrow_mut();
            assert!(c.emit_hook.is_none(), "emit hook already armed");
            c.emit_hook = Some(Box::new(f));
        }
        Core::maybe_fire_hook(this, sim);
    }

    fn maybe_fire_hook(this: &Rc<RefCell<Core>>, sim: &mut Sim) {
        let hook = {
            let mut c = this.borrow_mut();
            if c.emit_hook.is_some() && c.wants_more() {
                c.emit_hook.take()
            } else {
                None
            }
        };
        if let Some(h) = hook {
            sim.schedule_now(h);
        }
    }

    /// Emits one op with no dependence edges into the frontend; returns its
    /// id.
    ///
    /// # Panics
    ///
    /// Panics if the op alone exceeds the ROB.
    pub fn emit(this: &Rc<RefCell<Core>>, sim: &mut Sim, op: Op) -> OpId {
        Core::emit_after(this, sim, op, &[])
    }

    /// Emits one op into the frontend that begins executing only once every
    /// op in `deps` (earlier ids) has completed; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a dependence edge points at this op or a future op, or if
    /// the op alone exceeds the ROB.
    pub fn emit_after(this: &Rc<RefCell<Core>>, sim: &mut Sim, op: Op, deps: &[OpId]) -> OpId {
        let id = {
            let mut c = this.borrow_mut();
            let c = &mut *c;
            let id = c.base + c.window.len() as OpId;
            let slots = op.kind.slots();
            assert!(slots <= c.config.rob_slots, "op of {slots} slots exceeds the ROB");
            let mut pending = 0;
            for &d in deps {
                assert!(d < id, "dependence on future op {d}");
                // A dep below `base` has already retired: satisfied.
                if let Some(i) = d.checked_sub(c.base) {
                    let ds = &mut c.window[i as usize];
                    if !ds.done {
                        c.edges.push(&mut ds.dependents, id);
                        pending += 1;
                    }
                }
            }
            c.window.push_back(OpState {
                kind: op.kind,
                on_complete: op.on_complete,
                pending_deps: pending,
                dependents: EdgeList::EMPTY,
                done: false,
                counted: false,
                profile: op.profile,
            });
            c.queued_slots += slots;
            id
        };
        Core::pump(this, sim);
        id
    }

    /// Emits `insts` work instructions as a chained sequence of chunks that
    /// additionally depend on `deps`. Returns the id of the *last* chunk
    /// (the op later code should depend on), or `None` for zero work.
    pub fn emit_work(
        this: &Rc<RefCell<Core>>,
        sim: &mut Sim,
        insts: u32,
        deps: &[OpId],
    ) -> Option<OpId> {
        const CHUNK: u32 = 32;
        let mut prev: Option<OpId> = None;
        for n in crate::ops::work_chunks(insts, CHUNK) {
            let op = Op::new(OpKind::Work { insts: n });
            prev = Some(match prev {
                None => Core::emit_after(this, sim, op, deps),
                Some(p) => Core::emit_after(this, sim, op, &[p]),
            });
        }
        prev
    }

    fn pump(this: &Rc<RefCell<Core>>, sim: &mut Sim) {
        loop {
            let ready = {
                let mut c = this.borrow_mut();
                if c.queued_ops() == 0 {
                    break;
                }
                let now = sim.now();
                if c.frontend_free > now {
                    if !c.pump_scheduled {
                        c.pump_scheduled = true;
                        let this2 = this.clone();
                        sim.schedule_at(c.frontend_free, move |sim| {
                            this2.borrow_mut().pump_scheduled = false;
                            Core::pump(&this2, sim);
                        });
                    }
                    break;
                }
                let front = c.next_dispatch;
                let st = c.op(front);
                let (slots, pending_deps) = (st.kind.slots(), st.pending_deps);
                if c.rob_used + slots > c.config.rob_slots {
                    break; // retirement will re-pump
                }
                c.next_dispatch += 1;
                c.queued_slots -= slots;
                c.rob_used += slots;
                c.frontend_free = now.max(c.frontend_free) + c.dispatch_cost[slots as usize];
                (pending_deps == 0).then_some(front)
            };
            if let Some(id) = ready {
                Core::begin_execute(this, sim, id);
            }
        }
        Core::maybe_fire_hook(this, sim);
    }

    fn begin_execute(this: &Rc<RefCell<Core>>, sim: &mut Sim, id: OpId) {
        let kind = {
            let mut c = this.borrow_mut();
            let dispatched = id < c.next_dispatch;
            let st = c.op_mut(id);
            debug_assert!(dispatched && st.pending_deps == 0 && !st.done);
            let kind = st.kind;
            if !st.counted {
                st.counted = true;
                match kind {
                    OpKind::Load { .. } => c.loads.incr(),
                    OpKind::Store { .. } => c.stores.incr(),
                    OpKind::Prefetch { .. } => c.prefetches.incr(),
                    _ => {}
                }
            }
            kind
        };
        match kind {
            OpKind::Work { insts } => {
                let d = this.borrow().work_span[insts as usize];
                let this2 = this.clone();
                let start = sim.now();
                sim.schedule_in(d, move |sim| {
                    {
                        let c = this2.borrow();
                        if c.tracer.wants(TraceClass::Profile) {
                            c.tracer.complete_since(Category::Cpu, "cpu.work", c.id as u32, start, insts as u64);
                        }
                    }
                    Core::complete_op(&this2, sim, id);
                });
            }
            OpKind::SoftWork { span } | OpKind::Mmio { cost: span } => {
                // Serialize on the core's software-execution resource.
                let (done_at, start) = {
                    let mut c = this.borrow_mut();
                    let start = sim.now().max(c.soft_busy_until);
                    c.soft_busy_until = start + span;
                    (start + span, start)
                };
                let this2 = this.clone();
                sim.schedule_at(done_at, move |sim| {
                    {
                        let c = this2.borrow();
                        if c.tracer.wants(TraceClass::Profile) {
                            let name = c.op(id).profile.unwrap_or("cpu.soft");
                            c.tracer.complete_since(Category::Cpu, name, c.id as u32, start, 0);
                        }
                    }
                    Core::complete_op(&this2, sim, id);
                });
            }
            OpKind::Store { line } => {
                // Posted: a cycle into the write buffer, then the downstream
                // write proceeds without the core. The local copy (L1) is
                // updated so later loads of this line hit.
                let (d, store_path, core_id) = {
                    let mut c = this.borrow_mut();
                    c.l1.fill(line);
                    (c.config.clock.cycles(1), c.store_path.clone(), c.id)
                };
                if let Some(p) = store_path {
                    p(sim, core_id, line);
                }
                let this2 = this.clone();
                sim.schedule_in(d, move |sim| Core::complete_op(&this2, sim, id));
            }
            OpKind::Load { line } | OpKind::Prefetch { line } => {
                Core::execute_mem(this, sim, id, line, matches!(kind, OpKind::Prefetch { .. }), None);
            }
        }
    }

    /// Memory-op execution; retryable (LFB back-pressure) without
    /// recounting. `waited_since` carries the instant the op first found
    /// every LFB busy, so the profiler can charge the whole wait to
    /// `stall_lfb_full` once a slot frees up.
    fn execute_mem(
        this: &Rc<RefCell<Core>>,
        sim: &mut Sim,
        id: OpId,
        line: LineAddr,
        is_prefetch: bool,
        waited_since: Option<Time>,
    ) {
        enum Route {
            CompleteIn(kus_sim::Span),
            CompleteNow,
            Merged,
            NeedSlot,
            Fill { prefetch_completes: bool },
        }
        let route = {
            let mut c = this.borrow_mut();
            let now = sim.now();
            let lfb = c.lfb.clone();
            let mut lfb = lfb.borrow_mut();
            if is_prefetch {
                if c.l1.probe(line) || lfb.is_pending(line) {
                    Route::CompleteNow // redundant prefetch: drops harmlessly
                } else if lfb.try_allocate(now, line, None).is_ok() {
                    Route::Fill { prefetch_completes: true }
                } else {
                    // Non-binding hint under MSHR pressure: dropped.
                    c.dropped_prefetches.incr();
                    Route::CompleteNow
                }
            } else if c.l1.access(line) {
                let hit = c.config.clock.cycles(c.config.l1_hit_cycles as u64);
                Route::CompleteIn(hit)
            } else if lfb.merge(line, id) {
                c.load_merges.incr();
                Route::Merged
            } else if lfb.try_allocate(now, line, Some(id)).is_ok() {
                Route::Fill { prefetch_completes: false }
            } else {
                Route::NeedSlot
            }
        };
        if let Some(since) = waited_since {
            if !matches!(route, Route::NeedSlot) {
                let c = this.borrow();
                if c.tracer.wants(TraceClass::Profile) {
                    c.tracer.complete_since(Category::Cpu, "cpu.lfbwait", c.id as u32, since, line.index());
                }
            }
        }
        match route {
            Route::CompleteIn(d) => {
                let this2 = this.clone();
                sim.schedule_in(d, move |sim| Core::complete_op(&this2, sim, id));
            }
            Route::CompleteNow => {
                let this2 = this.clone();
                sim.schedule_now(move |sim| Core::complete_op(&this2, sim, id));
            }
            Route::Merged => {} // completion arrives with the pending fill
            Route::NeedSlot => {
                let this2 = this.clone();
                let since = waited_since.unwrap_or_else(|| sim.now());
                let lfb = this.borrow().lfb.clone();
                lfb.borrow_mut().wait_for_slot(move |sim| {
                    Core::execute_mem(&this2, sim, id, line, is_prefetch, Some(since));
                });
            }
            Route::Fill { prefetch_completes } => {
                if prefetch_completes {
                    // Non-binding prefetch: retires as soon as it is issued
                    // to the memory system.
                    let this2 = this.clone();
                    sim.schedule_now(move |sim| Core::complete_op(&this2, sim, id));
                }
                Core::launch_fill(this, sim, line);
            }
        }
    }

    /// Acquires a shared chip-level credit (waiting if exhausted), then sends
    /// the fill down the injected path.
    fn launch_fill(this: &Rc<RefCell<Core>>, sim: &mut Sim, line: LineAddr) {
        let credits = this.borrow().credits.clone();
        let acquired = credits.borrow_mut().try_acquire(sim.now());
        if !acquired {
            let this2 = this.clone();
            credits.borrow_mut().wait(move |sim| Core::launch_fill(&this2, sim, line));
            return;
        }
        let (fill, core_id) = {
            let c = this.borrow();
            (c.fill.clone(), c.id)
        };
        let this2 = this.clone();
        let credits2 = credits.clone();
        fill(
            sim,
            core_id,
            line,
            Box::new(move |sim| {
                credits2.borrow_mut().release(sim);
                Core::fill_arrived(&this2, sim, line);
            }),
        );
    }

    fn fill_arrived(this: &Rc<RefCell<Core>>, sim: &mut Sim, line: LineAddr) {
        let tokens = {
            let mut c = this.borrow_mut();
            let lfb = c.lfb.clone();
            let tokens = lfb.borrow_mut().complete(sim, line);
            c.l1.fill(line);
            tokens
        };
        for t in tokens {
            Core::complete_op(this, sim, t);
        }
    }

    fn complete_op(this: &Rc<RefCell<Core>>, sim: &mut Sim, id: OpId) {
        let (hook, mut ready) = {
            let mut c = this.borrow_mut();
            let c = &mut *c;
            let mut ready = std::mem::take(&mut c.ready);
            let st = &mut c.window[(id - c.base) as usize];
            debug_assert!(!st.done, "op {id} completed twice");
            st.done = true;
            let hook = st.on_complete.take();
            let dependents = std::mem::replace(&mut st.dependents, EdgeList::EMPTY);
            let mut e = dependents.head;
            while e != NIL {
                let Edge { to, next } = c.edges.edges[e as usize];
                let ds = &mut c.window[(to - c.base) as usize];
                ds.pending_deps -= 1;
                if ds.pending_deps == 0 && to < c.next_dispatch {
                    ready.push(to);
                }
                e = next;
            }
            c.edges.release(dependents);
            (hook, ready)
        };
        if let Some(h) = hook {
            h(sim);
        }
        for &d in &ready {
            Core::begin_execute(this, sim, d);
        }
        ready.clear();
        this.borrow_mut().ready = ready;
        Core::try_retire(this, sim);
    }

    fn try_retire(this: &Rc<RefCell<Core>>, sim: &mut Sim) {
        let retired_any = {
            let mut c = this.borrow_mut();
            let mut any = false;
            while c.base < c.next_dispatch && c.window[0].done {
                let st = c.window.pop_front().expect("the ROB is not empty");
                c.base += 1;
                c.rob_used -= st.kind.slots();
                c.retired_ops.incr();
                if let OpKind::Work { insts } = st.kind {
                    c.retired_work_insts.add(insts as u64);
                }
                any = true;
            }
            any
        };
        if retired_any {
            Core::pump(this, sim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kus_sim::Span;
    use std::cell::Cell;

    /// A fill path with a fixed latency, counting launches.
    fn fixed_fill(latency: Span, launches: Rc<Cell<u64>>) -> FillPath {
        Rc::new(move |sim: &mut Sim, _core, _line, done: EventFn| {
            launches.set(launches.get() + 1);
            sim.schedule_in(latency, done);
        })
    }

    struct Rig {
        sim: Sim,
        core: Rc<RefCell<Core>>,
        launches: Rc<Cell<u64>>,
    }

    fn rig_with(cfg: CoreConfig, credit_cap: usize, fill_latency: Span) -> Rig {
        let sim = Sim::new();
        let credits = Rc::new(RefCell::new(CreditQueue::new("test-path", credit_cap)));
        let launches = Rc::new(Cell::new(0));
        let core = Core::new(0, cfg, credits, fixed_fill(fill_latency, launches.clone()));
        Rig { sim, core, launches }
    }

    fn rig() -> Rig {
        rig_with(CoreConfig::default(), 14, Span::from_us(1))
    }

    fn l(i: u64) -> LineAddr {
        LineAddr::from_index(i)
    }

    #[test]
    fn work_executes_at_configured_ipc() {
        let mut r = rig_with(
            CoreConfig { clock: Clock::from_ghz(1.0), work_ipc: 1.4, ..CoreConfig::default() },
            14,
            Span::ZERO,
        );
        // 140 instructions at IPC 1.4 = 100 cycles = 100 ns at 1 GHz.
        let done = Rc::new(Cell::new(0u64));
        let d = done.clone();
        let last = Core::emit_work(&r.core, &mut r.sim, 140, &[]).unwrap();
        Core::emit_after(
            &r.core,
            &mut r.sim,
            Op::new(OpKind::Work { insts: 1 }).on_complete(move |sim| d.set(sim.now().as_ns())),
            &[last],
        );
        r.sim.run();
        // 140 chained instructions ≈ 100 cycles, plus the 1-inst probe (~1 cycle).
        assert!((100..=103).contains(&done.get()), "took {}", done.get());
        assert_eq!(r.core.borrow().retired_work_insts.get(), 141);
    }

    #[test]
    fn parallel_work_chains_overlap() {
        let mut r = rig_with(
            CoreConfig { clock: Clock::from_ghz(1.0), work_ipc: 1.0, ..CoreConfig::default() },
            14,
            Span::ZERO,
        );
        // Two independent 32-inst chunks: dataflow model executes them
        // concurrently once dispatched (the work-IPC chain is per chain).
        Core::emit(&r.core, &mut r.sim, Op::new(OpKind::Work { insts: 32 }));
        Core::emit(&r.core, &mut r.sim, Op::new(OpKind::Work { insts: 32 }));
        r.sim.run();
        // Dispatch: 8 + 8 cycles; exec 32 each overlapping => well under 64.
        assert!(r.sim.now().as_ns() <= 48, "took {}", r.sim.now().as_ns());
    }

    #[test]
    fn load_miss_uses_fill_path_and_fills_l1() {
        let mut r = rig();
        let done = Rc::new(Cell::new(0u64));
        let d = done.clone();
        Core::emit(
            &r.core,
            &mut r.sim,
            Op::new(OpKind::Load { line: l(1) }).on_complete(move |sim| d.set(sim.now().as_ns())),
        );
        r.sim.run();
        assert_eq!(r.launches.get(), 1);
        assert!(done.get() >= 1000);
        // Second load to the same line hits L1.
        let d2 = Rc::new(Cell::new(0u64));
        let d2c = d2.clone();
        let t0 = r.sim.now();
        Core::emit(
            &r.core,
            &mut r.sim,
            Op::new(OpKind::Load { line: l(1) }).on_complete(move |sim| d2c.set(sim.now().as_ns())),
        );
        r.sim.run();
        assert_eq!(r.launches.get(), 1, "no second fill");
        assert!(d2.get() - t0.as_ns() < 10, "L1 hit is fast");
    }

    #[test]
    fn loads_to_same_pending_line_merge() {
        let mut r = rig();
        let count = Rc::new(Cell::new(0u32));
        for _ in 0..3 {
            let c = count.clone();
            Core::emit(
                &r.core,
                &mut r.sim,
                Op::new(OpKind::Load { line: l(7) }).on_complete(move |_| c.set(c.get() + 1)),
            );
        }
        r.sim.run();
        assert_eq!(count.get(), 3);
        assert_eq!(r.launches.get(), 1, "one fill serves all three");
        assert_eq!(r.core.borrow().load_merges.get(), 2);
    }

    #[test]
    fn prefetch_retires_immediately_and_load_hits_later() {
        let mut r = rig();
        let pf_done = Rc::new(Cell::new(u64::MAX));
        let p = pf_done.clone();
        Core::emit(
            &r.core,
            &mut r.sim,
            Op::new(OpKind::Prefetch { line: l(3) }).on_complete(move |sim| p.set(sim.now().as_ns())),
        );
        // Drive just past the prefetch completion, well before the fill.
        r.sim.run_until({
            let p = pf_done.clone();
            move || p.get() != u64::MAX
        });
        assert!(pf_done.get() < 100, "prefetch retired at {}", pf_done.get());

        let ld_done = Rc::new(Cell::new(0u64));
        let ld = ld_done.clone();
        Core::emit(
            &r.core,
            &mut r.sim,
            Op::new(OpKind::Load { line: l(3) }).on_complete(move |sim| ld.set(sim.now().as_ns())),
        );
        r.sim.run();
        // The load merged into the pending prefetch: completes at fill time.
        assert!((1000..1100).contains(&ld_done.get()), "load at {}", ld_done.get());
        assert_eq!(r.launches.get(), 1);
    }

    #[test]
    fn lfb_count_caps_outstanding_prefetches() {
        let mut r = rig(); // 10 LFBs, 1 us fill
        for i in 0..20 {
            Core::emit(&r.core, &mut r.sim, Op::new(OpKind::Prefetch { line: l(i) }));
        }
        r.sim.run();
        // 10 prefetches got LFBs and filled; the rest were non-binding
        // hints under MSHR pressure and were dropped.
        assert_eq!(r.launches.get(), 10);
        assert_eq!(r.core.borrow().lfb().borrow().occupancy().max(), 10);
        assert_eq!(r.core.borrow().dropped_prefetches.get(), 10);

        // The dropped lines were never filled: demand loads to them pay the
        // full latency (and can allocate LFBs now that fills completed).
        let t0 = r.sim.now();
        let done = Rc::new(Cell::new(0u64));
        for i in 10..20 {
            let d = done.clone();
            Core::emit(
                &r.core,
                &mut r.sim,
                Op::new(OpKind::Load { line: l(i) }).on_complete(move |_| d.set(d.get() + 1)),
            );
        }
        r.sim.run();
        assert_eq!(done.get(), 10);
        assert!(r.sim.now() - t0 >= Span::from_us(1));
        assert_eq!(r.launches.get(), 20);
    }

    #[test]
    fn shared_credits_cap_in_flight_fills() {
        let mut r = rig_with(CoreConfig::default(), 2, Span::from_us(1));
        for i in 0..6 {
            Core::emit(&r.core, &mut r.sim, Op::new(OpKind::Prefetch { line: l(i) }));
        }
        r.sim.set_horizon(Time::ZERO + Span::from_ns(999));
        r.sim.run();
        assert_eq!(r.launches.get(), 2, "credit cap of 2 limits launches");
        r.sim.set_horizon(Time::MAX);
        r.sim.run();
        assert_eq!(r.launches.get(), 6);
    }

    #[test]
    fn rob_limits_on_demand_overlap() {
        // ROB of 100 slots; each iteration is load(1) + work(59) = 60 slots,
        // so at most ~2 iterations fit: loads overlap in pairs.
        let cfg = CoreConfig {
            clock: Clock::from_ghz(1.0),
            rob_slots: 100,
            work_ipc: 1.0,
            ..CoreConfig::default()
        };
        let mut r = rig_with(cfg, 14, Span::from_us(1));
        for i in 0..4u64 {
            let ld = Core::emit(&r.core, &mut r.sim, Op::new(OpKind::Load { line: l(i) }));
            Core::emit_work(&r.core, &mut r.sim, 59, &[ld]);
        }
        r.sim.run();
        let total = r.sim.now().as_ns();
        // Pairs of overlapped 1 us loads: ≈ 2 us + work tails, far from the
        // fully-serial 4 us and the fully-parallel 1 us.
        assert!((2000..2400).contains(&total), "took {total}");
    }

    #[test]
    fn dependent_work_waits_for_load() {
        let mut r = rig();
        let order = Rc::new(RefCell::new(Vec::new()));
        let o1 = order.clone();
        let ld = Core::emit(
            &r.core,
            &mut r.sim,
            Op::new(OpKind::Load { line: l(0) }).on_complete(move |_| o1.borrow_mut().push("load")),
        );
        let o2 = order.clone();
        Core::emit_after(
            &r.core,
            &mut r.sim,
            Op::new(OpKind::Work { insts: 10 }).on_complete(move |_| o2.borrow_mut().push("work")),
            &[ld],
        );
        r.sim.run();
        assert_eq!(*order.borrow(), vec!["load", "work"]);
        assert!(r.sim.now().as_ns() > 1000);
    }

    #[test]
    fn emit_hook_fires_when_frontend_wants_more() {
        let mut r = rig();
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        Core::set_emit_hook(&r.core, &mut r.sim, move |_| f.set(true));
        r.sim.run();
        assert!(fired.get(), "empty frontend asks for ops immediately");
    }

    #[test]
    fn emit_hook_respects_backpressure() {
        let cfg = CoreConfig {
            rob_slots: 32,
            emit_low_water_slots: 32,
            ..CoreConfig::default()
        };
        let mut r = rig_with(cfg, 14, Span::from_us(1));
        // Fill the pipeline: a blocked load then plenty of dependent work.
        let ld = Core::emit(&r.core, &mut r.sim, Op::new(OpKind::Load { line: l(0) }));
        Core::emit_work(&r.core, &mut r.sim, 200, &[ld]);
        let fired_at = Rc::new(Cell::new(u64::MAX));
        let f = fired_at.clone();
        Core::set_emit_hook(&r.core, &mut r.sim, move |sim| f.set(sim.now().as_ns()));
        r.sim.run();
        assert!(fired_at.get() >= 1000, "hook waited for the pipeline to drain: {}", fired_at.get());
    }

    #[test]
    fn mmio_and_softwork_cost_time() {
        let mut r = rig();
        let done = Rc::new(Cell::new(0u64));
        let d = done.clone();
        let a = Core::emit(&r.core, &mut r.sim, Op::new(OpKind::SoftWork { span: Span::from_ns(35) }));
        Core::emit_after(
            &r.core,
            &mut r.sim,
            Op::new(OpKind::Mmio { cost: Span::from_ns(300) }).on_complete(move |sim| d.set(sim.now().as_ns())),
            &[a],
        );
        r.sim.run();
        assert!((335..340).contains(&done.get()), "took {}", done.get());
    }

    #[test]
    #[should_panic(expected = "dependence on future op")]
    fn future_dep_panics() {
        let mut r = rig();
        Core::emit_after(&r.core, &mut r.sim, Op::new(OpKind::Work { insts: 1 }), &[5]);
    }

    /// A random dependence graph under construction, with what its deps
    /// found at emit time.
    struct Graph {
        deps: Vec<Vec<OpId>>,
        /// Per op: hook firings, completion sequence number, completion time.
        done: Rc<RefCell<Vec<(u32, u64, Time)>>>,
        seq: Rc<Cell<u64>>,
        /// Per op: dependents that found it pending.
        waiters: Vec<usize>,
        /// Deps on retired ops, on done but unretired ops, on pending ops;
        /// ops of a full ROB's slots.
        reached: [u64; 4],
    }

    impl Graph {
        fn emit(&mut self, r: &mut Rig, kind: OpKind, deps: Vec<OpId>) -> OpId {
            let id = self.deps.len() as OpId;
            let first_unretired = id - r.core.borrow().in_flight() as OpId;
            for &d in &deps {
                let class = if d < first_unretired {
                    0
                } else if self.done.borrow()[d as usize].0 > 0 {
                    1
                } else {
                    self.waiters[d as usize] += 1;
                    2
                };
                self.reached[class] += 1;
            }
            if kind.slots() == r.core.borrow().config().rob_slots {
                self.reached[3] += 1;
            }
            self.done.borrow_mut().push((0, 0, Time::ZERO));
            self.waiters.push(0);
            let (done, seq) = (self.done.clone(), self.seq.clone());
            let op = Op::new(kind).on_complete(move |sim| {
                seq.set(seq.get() + 1);
                let e = &mut done.borrow_mut()[id as usize];
                *e = (e.0 + 1, seq.get(), sim.now());
            });
            assert_eq!(Core::emit_after(&r.core, &mut r.sim, op, &deps), id, "op ids are contiguous");
            self.deps.push(deps);
            id
        }
    }

    /// Random dependence graphs emitted in bursts while the pipeline runs:
    /// every hook fires exactly once, no op completes before one of its
    /// deps, and the pipeline drains. Deps land on retired ops, on ops that
    /// are done but wait behind the ROB head, and on pending ops. Fan-outs
    /// give one load a dozen dependents; being alike, they complete in the
    /// order they were emitted.
    #[test]
    fn random_dependence_graphs_complete_in_dataflow_order() {
        use kus_sim::rng::SimRng;
        const FANOUT: usize = 12;
        let (mut reached, mut fanouts) = ([0u64; 4], 0);
        for case in 0..48u64 {
            let mut rng = SimRng::from_seed(case);
            let rob_slots = [16, 48, 192][rng.below(3) as usize];
            let cfg = CoreConfig {
                rob_slots,
                emit_low_water_slots: rob_slots,
                lfb_count: [2, 4, 10][rng.below(3) as usize],
                ..CoreConfig::default()
            };
            let fill = Span::from_ns([100, 1000][rng.below(2) as usize]);
            let mut r = rig_with(cfg, [2, 14][rng.below(2) as usize], fill);
            let mut g = Graph {
                deps: Vec::new(),
                done: Rc::default(),
                seq: Rc::default(),
                waiters: Vec::new(),
                reached: [0; 4],
            };
            let (mut next_miss, mut roots) = (1_000, Vec::new());
            for _burst in 0..6 {
                for _ in 0..40 {
                    let n = g.deps.len() as u64;
                    let deps = if n == 0 { Vec::new() } else { (0..rng.below(4)).map(|_| n - 1 - rng.below(n.min(64))).collect() };
                    let line = l(rng.below(24));
                    let kind = match rng.below(9) {
                        0 => OpKind::Work { insts: rob_slots },
                        1 | 2 => OpKind::Work { insts: rng.below(rob_slots.min(32) as u64 + 1) as u32 },
                        3 | 4 => OpKind::Load { line },
                        5 => OpKind::Prefetch { line },
                        6 => OpKind::Store { line },
                        7 => OpKind::SoftWork { span: Span::from_ns(rng.below(40)) },
                        _ => OpKind::Mmio { cost: Span::from_ns(rng.below(300)) },
                    };
                    g.emit(&mut r, kind, deps);
                    if rng.chance(0.05) {
                        // A fresh miss with a wide fan-out of dependents.
                        let root = g.emit(&mut r, OpKind::Load { line: l(next_miss) }, Vec::new());
                        next_miss += 1;
                        roots.push(root as usize);
                        for _ in 0..FANOUT {
                            g.emit(&mut r, OpKind::Work { insts: 1 }, vec![root]);
                        }
                    }
                }
                let horizon = r.sim.now() + Span::from_ns(rng.below(1500));
                r.sim.set_horizon(horizon);
                r.sim.run();
                r.sim.set_horizon(Time::MAX);
            }
            r.sim.run();
            let done = g.done.borrow();
            for (id, deps) in g.deps.iter().enumerate() {
                let (fired, s, at) = done[id];
                assert_eq!(fired, 1, "case {case}: op {id}'s hook fired {fired} times");
                for &d in deps {
                    let (_, ds, dat) = done[d as usize];
                    assert!(ds < s && dat <= at, "case {case}: op {id} completed before its dep {d}");
                }
            }
            for root in roots {
                let fan = &done[root + 1..=root + FANOUT];
                assert!(fan.windows(2).all(|w| w[0].1 < w[1].1), "case {case}: op {root}'s dependents out of order");
            }
            let c = r.core.borrow();
            assert_eq!(c.in_flight(), 0, "case {case}: the pipeline did not drain");
            assert_eq!(c.retired_ops.get(), g.deps.len() as u64, "case {case}");
            for (a, b) in reached.iter_mut().zip(g.reached) {
                *a += b;
            }
            fanouts += g.waiters.iter().filter(|&&n| n >= FANOUT).count();
        }
        assert!(reached.iter().all(|&n| n > 0) && fanouts > 0, "a case was never reached: {reached:?}, {fanouts} fan-outs");
    }

    #[test]
    fn span_table_matches_clock_work() {
        let clock = Clock::XEON_E5_2670V3;
        let table = span_table(clock, 1.4, 192);
        assert_eq!(table.len(), 193);
        for (n, &span) in table.iter().enumerate() {
            assert_eq!(span, clock.work(n as u64, 1.4), "{n} instructions");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut r = rig();
            for i in 0..50u64 {
                let ld = Core::emit(&r.core, &mut r.sim, Op::new(OpKind::Load { line: l(i) }));
                Core::emit_work(&r.core, &mut r.sim, 40, &[ld]);
            }
            r.sim.run();
            let result = (r.sim.now().as_ps(), r.core.borrow().retired_ops.get());
            result
        };
        assert_eq!(run(), run());
    }
}
