//! The event core and simulation driver.
//!
//! [`Sim`] dispatches events in `(time, seq)` order — a total order in which
//! events scheduled for the same instant fire in scheduling order, making
//! every run bit-deterministic. Since the timing-wheel rewrite the machinery
//! behind that contract is:
//!
//! - a **hierarchical timing wheel** (`wheel`) instead of a
//!   binary heap: O(1) insert, O(1)-amortized pop, far-future deadlines held
//!   in coarse calendar buckets that cascade down as the clock approaches;
//! - a **slab event allocator** (`slab`): events live in
//!   freelist-recycled fixed-size slots threaded intrusively through the
//!   wheel's buckets, so scheduling allocates nothing beyond the payload
//!   (and nothing at all for the [`schedule_fn_at`](Sim::schedule_fn_at)
//!   fixed variants — the boxed-closure [`schedule_at`](Sim::schedule_at)
//!   remains the general escape hatch);
//! - **batched dispatch**: the wheel surrenders a whole tick (~1 ns of
//!   deadlines) at once as a `(time, seq)`-sorted *ready run*; the driver
//!   drains the run without re-touching the scheduler per event, advancing
//!   `now` and the shared clock mirror only when the instant changes, and
//!   merges events scheduled into the in-flight tick at their exact sorted
//!   position.
//!
//! The pre-rewrite `BinaryHeap` core is retained verbatim in
//! [`heap_ref`](crate::heap_ref) as a reference model; the differential
//! suite at the bottom of this file replays randomized workloads through
//! both and asserts identical dispatch sequences.

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

use crate::slab::{EventSlab, Payload, Ready};
use crate::time::{Span, Time};
use crate::wheel::{Wheel, GRAIN_BITS};

/// A boxed event callback.
pub type EventFn = Box<dyn FnOnce(&mut Sim)>;

/// Outcome of [`Sim::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Drained,
    /// The configured event budget was exhausted before the queue drained.
    BudgetExhausted,
    /// The time horizon was reached before the queue drained.
    HorizonReached,
}

/// The discrete-event simulation driver.
///
/// # Examples
///
/// ```
/// use kus_sim::{Sim, time::Span};
///
/// let mut sim = Sim::new();
/// let hits = std::rc::Rc::new(std::cell::Cell::new(0u32));
/// let h = hits.clone();
/// sim.schedule_in(Span::from_ns(10), move |sim| {
///     h.set(h.get() + 1);
///     let h2 = h.clone();
///     sim.schedule_in(Span::from_ns(5), move |_| h2.set(h2.get() + 1));
/// });
/// sim.run();
/// assert_eq!(hits.get(), 2);
/// assert_eq!(sim.now().as_ns(), 15);
/// ```
pub struct Sim {
    now: Time,
    /// Mirror of `now`, shared with observers (e.g. the tracer) that have no
    /// `&Sim` at the point where they need a timestamp. Updated once per
    /// distinct instant, not once per event.
    clock: Rc<Cell<Time>>,
    seq: u64,
    slab: EventSlab,
    wheel: Wheel,
    /// The tick currently being dispatched, drained from the wheel and
    /// sorted by exact `(time, seq)`; `ready[batch_pos..]` are still
    /// pending. The buffer is reused across ticks to keep the dispatch loop
    /// allocation-free, and [`push`](Sim::push) merge-inserts events that
    /// land inside the in-flight tick at their sorted position.
    ready: Vec<Ready>,
    batch_pos: usize,
    executed: u64,
    horizon: Time,
    budget: u64,
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("pending", &self.pending())
            .field("executed", &self.executed)
            .finish()
    }
}

impl Default for Sim {
    fn default() -> Sim {
        Sim::new()
    }
}

impl Sim {
    /// Creates an empty simulation at time zero with no horizon and a very
    /// large default event budget (a runaway-loop backstop).
    pub fn new() -> Sim {
        Sim::with_event_capacity(0)
    }

    /// Like [`new`](Sim::new), but pre-sizes the event slab for roughly
    /// `cap` concurrently pending events. Purely a performance hint: results
    /// are bit-identical for any value (locked down by a property test).
    pub fn with_event_capacity(cap: usize) -> Sim {
        Sim {
            now: Time::ZERO,
            clock: Rc::new(Cell::new(Time::ZERO)),
            seq: 0,
            slab: EventSlab::with_capacity(cap),
            wheel: Wheel::new(),
            ready: Vec::new(),
            batch_pos: 0,
            executed: 0,
            horizon: Time::MAX,
            budget: u64::MAX,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// A shared handle onto the simulation clock. The cell tracks
    /// [`now`](Sim::now) as events execute, letting passive observers (the
    /// tracer, in particular) timestamp themselves without threading a `&Sim`
    /// through every call site.
    pub fn now_handle(&self) -> Rc<Cell<Time>> {
        self.clock.clone()
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently pending (scheduled in the wheel or waiting
    /// in the in-flight ready run).
    pub fn pending(&self) -> usize {
        debug_assert_eq!(
            self.slab.live(),
            self.wheel.len() + (self.ready.len() - self.batch_pos)
        );
        self.slab.live()
    }

    /// Total event slots the slab has ever allocated (live + recycled).
    /// Telemetry for the benchmark suite; results never depend on it.
    pub fn event_slots(&self) -> usize {
        self.slab.capacity()
    }

    /// Stops [`run`](Sim::run) once virtual time would pass `t`.
    pub fn set_horizon(&mut self, t: Time) {
        self.horizon = t;
    }

    /// Stops [`run`](Sim::run) after `n` further events.
    pub fn set_event_budget(&mut self, n: u64) {
        self.budget = n;
    }

    fn push(&mut self, at: Time, payload: Payload) {
        assert!(at >= self.now, "cannot schedule into the past: {at} < {}", self.now);
        let seq = self.seq;
        self.seq = self.seq.checked_add(1).expect("event sequence wrapped");
        let id = self.slab.insert(payload);
        let at_ps = at.as_ps();
        let e = Ready { at: at_ps, seq, id };
        let tick = at_ps >> GRAIN_BITS;
        if self.batch_pos < self.ready.len() && tick == self.wheel.elapsed() {
            // The event lands inside the tick currently being dispatched:
            // merge it into the ready run at its exact (time, seq) position.
            // seq is the global maximum, so it sorts after any equal
            // deadline — the position depends on the deadline alone.
            let pos = self.ready[self.batch_pos..].partition_point(|r| r.at <= at_ps);
            self.ready.insert(self.batch_pos + pos, e);
        } else {
            if tick < self.wheel.elapsed() {
                // A horizon-limited peek cascaded the wheel cursor ahead of
                // `now`; re-anchor it before inserting into the gap. If a
                // drained tick is staged beyond the horizon (front of
                // `ready` past it, nothing of the tick dispatched yet),
                // spill it back first so the wheel again owns every pending
                // event and the ready run cannot shadow the earlier insert.
                for i in self.batch_pos..self.ready.len() {
                    self.wheel.insert(self.ready[i]);
                }
                self.ready.clear();
                self.batch_pos = 0;
                self.wheel.rewind(tick);
            }
            self.wheel.insert(e);
        }
    }

    /// Schedules `f` to run at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: Time, f: impl FnOnce(&mut Sim) + 'static) {
        self.push(at, Payload::Boxed(Box::new(f)));
    }

    /// [`schedule_at`](Sim::schedule_at) for a callback that is already
    /// boxed (a stored waiter or completion hook): the box becomes the
    /// event's payload as it is, where `schedule_at` would box it again.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_boxed_at(&mut self, at: Time, f: EventFn) {
        self.push(at, Payload::Boxed(f));
    }

    /// Schedules `f` to run `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Span, f: impl FnOnce(&mut Sim) + 'static) {
        self.schedule_at(self.now + delay, f);
    }

    /// Schedules `f` to run at the current instant, after all events already
    /// scheduled for this instant.
    pub fn schedule_now(&mut self, f: impl FnOnce(&mut Sim) + 'static) {
        self.schedule_at(self.now, f);
    }

    /// Allocation-free variant of [`schedule_at`](Sim::schedule_at) for a
    /// plain function pointer carrying one word of state. The event occupies
    /// a recycled slab slot and nothing else — the fast path for
    /// self-rescheduling timers and other fixed-shape events.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_fn_at(&mut self, at: Time, f: fn(&mut Sim, u64), arg: u64) {
        self.push(at, Payload::FnArg(f, arg));
    }

    /// [`schedule_fn_at`](Sim::schedule_fn_at) relative to the current time.
    pub fn schedule_fn_in(&mut self, delay: Span, f: fn(&mut Sim, u64), arg: u64) {
        self.schedule_fn_at(self.now + delay, f, arg);
    }

    /// Executes exactly one event if one is pending within the horizon.
    /// Returns whether an event ran.
    pub fn step(&mut self) -> bool {
        if self.batch_pos == self.ready.len() {
            self.ready.clear();
            self.batch_pos = 0;
            if !self.wheel.next_slot(self.horizon.as_ps() >> GRAIN_BITS, &mut self.ready) {
                return false;
            }
        }
        let ev = self.ready[self.batch_pos];
        let at = Time::from_ps(ev.at);
        if at > self.horizon {
            // Not due: the drained tick straddles the horizon, or the
            // horizon was lowered mid-run. The rest of the run stays pending
            // (and resumes if the horizon is raised again).
            return false;
        }
        self.batch_pos += 1;
        self.executed += 1;
        debug_assert!(at >= self.now, "event queue went backwards");
        if at != self.now {
            self.now = at;
            self.clock.set(at);
        }
        match self.slab.take(ev.id) {
            Payload::Boxed(f) => f(self),
            Payload::FnArg(f, arg) => f(self, arg),
        }
        true
    }

    /// Runs events until the queue drains, the horizon is reached, or the
    /// event budget is exhausted.
    pub fn run(&mut self) -> RunOutcome {
        let mut remaining = self.budget;
        loop {
            if remaining == 0 {
                return RunOutcome::BudgetExhausted;
            }
            if !self.step() {
                return if self.pending() == 0 {
                    RunOutcome::Drained
                } else {
                    RunOutcome::HorizonReached
                };
            }
            remaining -= 1;
        }
    }

    /// Runs until `pred` returns true (checked after each event), the queue
    /// drains, or limits hit. Returns true if the predicate was satisfied.
    pub fn run_until(&mut self, mut pred: impl FnMut() -> bool) -> bool {
        loop {
            if pred() {
                return true;
            }
            if !self.step() {
                return pred();
            }
        }
    }
}

/// A cancellable handle for a scheduled event.
///
/// The DES kernel keeps no direct reference from handle to queue entry;
/// instead the token is shared with the closure, which checks it on firing.
/// This is the standard "lazy deletion" technique: O(1) cancel, no wheel
/// surgery — and it makes tokens trivially independent of slab slot
/// recycling (a recycled slot never carries the old event's token).
///
/// # Examples
///
/// ```
/// use kus_sim::{Sim, event::Cancel, time::Span};
///
/// let mut sim = Sim::new();
/// let fired = std::rc::Rc::new(std::cell::Cell::new(false));
/// let f = fired.clone();
/// let cancel = Cancel::new();
/// let c = cancel.clone();
/// sim.schedule_in(Span::from_ns(1), move |_| {
///     if !c.is_cancelled() {
///         f.set(true);
///     }
/// });
/// cancel.cancel();
/// sim.run();
/// assert!(!fired.get());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Cancel(Rc<Cell<bool>>);

impl Cancel {
    /// Creates a live (non-cancelled) token.
    pub fn new() -> Cancel {
        Cancel::default()
    }

    /// Marks the token cancelled.
    pub fn cancel(&self) {
        self.0.set(true);
    }

    /// Whether [`cancel`](Cancel::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn record(log: &Rc<RefCell<Vec<u32>>>, v: u32) -> impl FnOnce(&mut Sim) {
        let log = log.clone();
        move |_| log.borrow_mut().push(v)
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.schedule_in(Span::from_ns(30), record(&log, 3));
        sim.schedule_in(Span::from_ns(10), record(&log, 1));
        sim.schedule_in(Span::from_ns(20), record(&log, 2));
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
        assert_eq!(sim.now(), Time::ZERO + Span::from_ns(30));
    }

    #[test]
    fn ties_fire_in_scheduling_order() {
        let mut sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for v in 0..16 {
            sim.schedule_in(Span::from_ns(5), record(&log, v));
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_now_runs_after_existing_same_instant_events() {
        let mut sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let l2 = log.clone();
        sim.schedule_in(Span::ZERO, {
            let log = log.clone();
            move |sim| {
                log.borrow_mut().push(1);
                sim.schedule_now(record(&l2, 3));
            }
        });
        sim.schedule_in(Span::ZERO, record(&log, 2));
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn events_can_chain() {
        let mut sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        sim.schedule_in(Span::from_ns(1), move |sim| {
            l.borrow_mut().push(1);
            let l2 = l.clone();
            sim.schedule_in(Span::from_ns(1), move |_| l2.borrow_mut().push(2));
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2]);
        assert_eq!(sim.now().as_ns(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Sim::new();
        sim.schedule_in(Span::from_ns(10), |sim| {
            sim.schedule_at(Time::from_ps(1), |_| {});
        });
        sim.run();
    }

    #[test]
    fn horizon_stops_run() {
        let mut sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.schedule_in(Span::from_ns(1), record(&log, 1));
        sim.schedule_in(Span::from_ns(100), record(&log, 2));
        sim.set_horizon(Time::ZERO + Span::from_ns(50));
        assert_eq!(sim.run(), RunOutcome::HorizonReached);
        assert_eq!(*log.borrow(), vec![1]);
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn budget_stops_run() {
        let mut sim = Sim::new();
        fn reschedule(sim: &mut Sim) {
            sim.schedule_in(Span::from_ns(1), reschedule);
        }
        sim.schedule_in(Span::from_ns(1), reschedule);
        sim.set_event_budget(100);
        assert_eq!(sim.run(), RunOutcome::BudgetExhausted);
        assert_eq!(sim.executed(), 100);
    }

    #[test]
    fn run_until_predicate() {
        let mut sim = Sim::new();
        let count = Rc::new(Cell::new(0u32));
        for _ in 0..10 {
            let c = count.clone();
            sim.schedule_in(Span::from_ns(1), move |_| c.set(c.get() + 1));
        }
        let c = count.clone();
        assert!(sim.run_until(move || c.get() >= 4));
        assert_eq!(count.get(), 4);
    }

    #[test]
    fn cancel_token() {
        let c = Cancel::new();
        assert!(!c.is_cancelled());
        let c2 = c.clone();
        c2.cancel();
        assert!(c.is_cancelled());
    }

    #[test]
    fn fn_events_interleave_with_closures_in_seq_order() {
        fn bump(sim: &mut Sim, arg: u64) {
            let _ = sim;
            LOG.with(|l| l.borrow_mut().push(arg as u32));
        }
        thread_local! {
            static LOG: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
        }
        LOG.with(|l| l.borrow_mut().clear());
        let mut sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.schedule_fn_in(Span::from_ns(5), bump, 1);
        sim.schedule_in(Span::from_ns(5), {
            let log = log.clone();
            move |_| log.borrow_mut().push(2)
        });
        sim.schedule_fn_in(Span::from_ns(5), bump, 3);
        sim.run();
        // Closure fired second; fn events first and third.
        assert_eq!(*log.borrow(), vec![2]);
        LOG.with(|l| assert_eq!(*l.borrow(), vec![1, 3]));
    }

    /// An already-boxed callback takes its `(time, seq)` slot exactly as
    /// the same closure passed to `schedule_at` would.
    #[test]
    fn boxed_events_keep_their_seq_order() {
        let mut sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let push = |v: u32| -> EventFn {
            let log = log.clone();
            Box::new(move |_| log.borrow_mut().push(v))
        };
        let at = Time::ZERO + Span::from_ns(5);
        sim.schedule_boxed_at(at, push(1));
        sim.schedule_at(at, push(2));
        sim.schedule_boxed_at(at, push(3));
        sim.schedule_boxed_at(Time::ZERO + Span::from_ns(2), push(0));
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3]);
        assert_eq!(sim.now(), at);
    }

    // ------------------------------------------------------------------
    // Wheel cascade boundaries.
    // ------------------------------------------------------------------

    /// One tick, in picoseconds (the wheel's level-0 bucketing granularity).
    const TICK: u64 = 1 << crate::wheel::GRAIN_BITS;

    /// Order survives the three bucketing boundaries: sub-tick deadlines
    /// (several events inside one tick, ordered by the ready-run sort),
    /// level-0 slot rollover (deadlines straddling a tick boundary and the
    /// 64-tick slot wrap), and page rollover (straddling the 4096-tick
    /// level-1 boundary).
    #[test]
    fn wheel_slot_and_page_rollover() {
        let mut sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let deadlines = [
            63u64, // inside tick 0
            64,
            65,
            TICK - 1, // last ps of tick 0
            TICK,     // first ps of tick 1
            TICK + 1, // tick boundary straddle
            64 * TICK - 1, // tick 63 — last slot of the level-0 revolution
            64 * TICK,     // tick 64 — slot wrap
            64 * TICK + 1,
            4096 * TICK - 1, // tick 4095 — last slot of the level-1 page
            4096 * TICK,     // tick 4096 — page wrap
            4096 * TICK + 1,
        ];
        for (i, &ps) in deadlines.iter().rev().enumerate() {
            let l = log.clone();
            sim.schedule_at(Time::from_ps(ps), move |_| l.borrow_mut().push(i as u32));
        }
        assert_eq!(sim.run(), RunOutcome::Drained);
        let expect: Vec<u32> = (0..deadlines.len() as u32).rev().collect();
        assert_eq!(*log.borrow(), expect);
        assert_eq!(sim.now().as_ps(), 4096 * TICK + 1);
    }

    /// Far-future deadlines live in the top calendar levels and cascade down
    /// correctly — including one over a second away (level >= 7) and one at
    /// the 2^60 boundary of the top level.
    #[test]
    fn wheel_far_future_overflow_levels() {
        let mut sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let far = [1u64 << 40, (1 << 40) + 1, 1 << 59, 1 << 60, (1 << 60) + 12_345];
        for (i, &ps) in far.iter().enumerate() {
            let l = log.clone();
            sim.schedule_at(Time::from_ps(ps), move |_| l.borrow_mut().push(i as u32));
        }
        // A near event first, to force cascades from a non-zero cursor.
        sim.schedule_in(Span::from_ns(1), record(&log, 99));
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(*log.borrow(), vec![99, 0, 1, 2, 3, 4]);
        assert_eq!(sim.now().as_ps(), (1 << 60) + 12_345);
    }

    /// `Time::MAX` is schedulable: it parks in the top level, never blocks
    /// earlier events, and fires last when actually run to.
    #[test]
    fn wheel_time_max_is_schedulable() {
        let mut sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.schedule_at(Time::MAX, record(&log, 2));
        sim.schedule_in(Span::from_ns(1), record(&log, 1));
        sim.set_horizon(Time::from_ps(u64::MAX - 1));
        assert_eq!(sim.run(), RunOutcome::HorizonReached);
        assert_eq!(*log.borrow(), vec![1]);
        assert_eq!(sim.pending(), 1);
        sim.set_horizon(Time::MAX);
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(*log.borrow(), vec![1, 2]);
        assert_eq!(sim.now(), Time::MAX);
    }

    /// The rewind path: a horizon-limited peek cascades the wheel cursor
    /// ahead of `now`; scheduling into the gap must still dispatch in time
    /// order.
    #[test]
    fn wheel_rewind_after_horizon_peek() {
        let mut sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        // One far event in a level-1 bucket whose start (tick 64) is inside
        // the horizon while the event itself is beyond it: the peek cascades
        // the bucket (advancing the cursor) and then stops.
        sim.schedule_at(Time::from_ps(65 * TICK + 7), record(&log, 3));
        sim.set_horizon(Time::from_ps(65 * TICK));
        assert_eq!(sim.run(), RunOutcome::HorizonReached);
        assert!(log.borrow().is_empty());
        // Now schedule between `now` (0) and the cascaded cursor.
        sim.schedule_at(Time::from_ps(100), record(&log, 1));
        sim.schedule_at(Time::from_ps(20 * TICK), record(&log, 2));
        sim.set_horizon(Time::MAX);
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
    }

    /// A drained tick can straddle the horizon: its events sit staged in the
    /// ready run, beyond the horizon, with `now` still behind. An insert
    /// into the gap must spill the staged tick back into the wheel (else the
    /// stale run would dispatch first and time would go backwards).
    #[test]
    fn wheel_gap_insert_while_tick_straddles_horizon() {
        let mut sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.schedule_at(Time::from_ps(100), record(&log, 1));
        // Tick 2 starts inside the horizon; the event in its upper half is
        // beyond it, so the drained tick stalls in the ready run.
        sim.schedule_at(Time::from_ps(2 * TICK + 900), record(&log, 3));
        sim.set_horizon(Time::from_ps(2 * TICK + 500));
        assert_eq!(sim.run(), RunOutcome::HorizonReached);
        assert_eq!(*log.borrow(), vec![1]);
        // Insert into the gap between `now` (100 ps) and the staged tick.
        sim.schedule_at(Time::from_ps(TICK + 500), record(&log, 2));
        sim.set_horizon(Time::MAX);
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
    }

    /// Lowering the horizon from inside a same-instant batch stops the rest
    /// of the batch, exactly as the heap core's per-event peek did.
    #[test]
    fn horizon_lowered_mid_batch_stops_dispatch() {
        let mut sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.schedule_in(Span::from_ns(10), {
            let log = log.clone();
            move |sim| {
                log.borrow_mut().push(1);
                sim.set_horizon(Time::ZERO); // below the batch instant
            }
        });
        sim.schedule_in(Span::from_ns(10), record(&log, 2));
        assert_eq!(sim.run(), RunOutcome::HorizonReached);
        assert_eq!(*log.borrow(), vec![1]);
        assert_eq!(sim.pending(), 1);
        // Raising it resumes the remainder of the batch.
        sim.set_horizon(Time::MAX);
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(*log.borrow(), vec![1, 2]);
    }

    // ------------------------------------------------------------------
    // Differential suite: the wheel against the retained heap core.
    // ------------------------------------------------------------------

    use crate::heap_ref::RefSim;
    use crate::rng::SimRng;

    /// A deterministic random workload: `n_seed` initial events; each firing
    /// event logs its tag and (pseudo-randomly, from the shared stream)
    /// schedules children at deltas skewed toward collisions (0 included)
    /// and occasionally cancels a previously created token.
    struct DiffWorkload {
        rng: SimRng,
        next_tag: u64,
    }

    impl DiffWorkload {
        /// Pops the next action for a firing event: up to two children with
        /// deltas (ps) drawn from a collision-heavy menu, plus a cancel flag.
        fn actions(&mut self, depth: u32) -> Vec<(u64, bool)> {
            let mut out = Vec::new();
            if depth >= 6 {
                return out;
            }
            let n = (self.rng.next_u64() % 3) as usize; // 0..=2 children
            for _ in 0..n {
                let menu = [0u64, 0, 1, 7, 63, 64, 65, 1000, 4096, 100_000, 1 << 21];
                let delta = menu[(self.rng.next_u64() % menu.len() as u64) as usize];
                let cancelled = self.rng.next_u64().is_multiple_of(5);
                out.push((delta, cancelled));
            }
            out
        }

        fn tag(&mut self) -> u64 {
            self.next_tag += 1;
            self.next_tag
        }
    }

    /// A dispatch log: `(time_ps, tag)` per fired event.
    type DispatchLog = Vec<(u64, u64)>;

    /// Drives the same workload through both cores and returns each
    /// dispatch log plus the final clock.
    fn run_differential(seed: u64, n_seed: usize) -> (DispatchLog, DispatchLog) {
        fn spawn_wheel(
            sim: &mut Sim,
            at: Time,
            tag: u64,
            cancelled: bool,
            w: &Rc<RefCell<DiffWorkload>>,
            log: &Rc<RefCell<Vec<(u64, u64)>>>,
            depth: u32,
        ) {
            let w2 = w.clone();
            let log2 = log.clone();
            let c = Cancel::new();
            if cancelled {
                c.cancel();
            }
            sim.schedule_at(at, move |sim| {
                if c.is_cancelled() {
                    return;
                }
                log2.borrow_mut().push((sim.now().as_ps(), tag));
                let acts = w2.borrow_mut().actions(depth);
                for (delta, cancelled) in acts {
                    let tag = w2.borrow_mut().tag();
                    let at = sim.now() + Span::from_ps(delta);
                    spawn_wheel(sim, at, tag, cancelled, &w2, &log2, depth + 1);
                }
            });
        }

        fn spawn_heap(
            sim: &mut RefSim,
            at: Time,
            tag: u64,
            cancelled: bool,
            w: &Rc<RefCell<DiffWorkload>>,
            log: &Rc<RefCell<Vec<(u64, u64)>>>,
            depth: u32,
        ) {
            let w2 = w.clone();
            let log2 = log.clone();
            let c = Cancel::new();
            if cancelled {
                c.cancel();
            }
            sim.schedule_at(at, move |sim| {
                if c.is_cancelled() {
                    return;
                }
                log2.borrow_mut().push((sim.now().as_ps(), tag));
                let acts = w2.borrow_mut().actions(depth);
                for (delta, cancelled) in acts {
                    let tag = w2.borrow_mut().tag();
                    let at = sim.now() + Span::from_ps(delta);
                    spawn_heap(sim, at, tag, cancelled, &w2, &log2, depth + 1);
                }
            });
        }

        let seeds: Vec<(u64, u64, bool)> = {
            // Pre-draw the seed events so both cores see identical input.
            let mut rng = SimRng::from_seed(seed).split("diff-seed");
            (0..n_seed)
                .map(|i| {
                    let menu = [0u64, 1, 63, 64, 1000, 4096, 1 << 18, 1 << 30];
                    let at = menu[(rng.next_u64() % menu.len() as u64) as usize]
                        + rng.next_u64() % 128;
                    (at, i as u64 + 1_000_000, rng.next_u64().is_multiple_of(7))
                })
                .collect()
        };

        let wheel_log = Rc::new(RefCell::new(Vec::new()));
        {
            let w = Rc::new(RefCell::new(DiffWorkload {
                rng: SimRng::from_seed(seed).split("diff-act"),
                next_tag: 0,
            }));
            let mut sim = Sim::new();
            for &(at, tag, cancelled) in &seeds {
                spawn_wheel(&mut sim, Time::from_ps(at), tag, cancelled, &w, &wheel_log, 0);
            }
            assert_eq!(sim.run(), RunOutcome::Drained);
        }

        let heap_log = Rc::new(RefCell::new(Vec::new()));
        {
            let w = Rc::new(RefCell::new(DiffWorkload {
                rng: SimRng::from_seed(seed).split("diff-act"),
                next_tag: 0,
            }));
            let mut sim = RefSim::new();
            for &(at, tag, cancelled) in &seeds {
                spawn_heap(&mut sim, Time::from_ps(at), tag, cancelled, &w, &heap_log, 0);
            }
            assert!(sim.run());
        }

        let a = Rc::try_unwrap(wheel_log).unwrap().into_inner();
        let b = Rc::try_unwrap(heap_log).unwrap().into_inner();
        (a, b)
    }

    /// The wheel pops the identical `(time, seq)` sequence as the reference
    /// heap on randomized schedule/cancel/same-instant workloads. The
    /// workload itself is order-sensitive (each fired event draws from a
    /// shared RNG stream), so any ordering divergence compounds and is
    /// caught by the log comparison.
    #[test]
    fn differential_wheel_matches_heap_reference() {
        for seed in 0..24u64 {
            let (wheel, heap) = run_differential(seed, 40);
            assert!(!wheel.is_empty(), "seed {seed}: empty workload");
            assert_eq!(wheel, heap, "seed {seed}: dispatch sequences diverged");
            let mut sorted = wheel.clone();
            sorted.sort_by_key(|&(t, _)| t);
            assert_eq!(wheel.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
                sorted.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
                "seed {seed}: time went backwards");
        }
    }

    /// Same differential under horizon chopping: run both cores horizon
    /// window by horizon window (stressing the peek/rewind path) and compare.
    #[test]
    fn differential_with_horizon_windows() {
        for seed in 0..8u64 {
            let mut rng = SimRng::from_seed(seed).split("windows");
            // Simple self-contained workload: 64 tagged one-shot events.
            let events: Vec<(u64, u64)> =
                (0..64u64).map(|i| (rng.next_u64() % 2_000_000, i)).collect();

            let wheel_log = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Sim::new();
            for &(at, tag) in &events {
                let l = wheel_log.clone();
                sim.schedule_at(Time::from_ps(at), move |s| {
                    l.borrow_mut().push((s.now().as_ps(), tag));
                });
            }
            let heap_log = Rc::new(RefCell::new(Vec::new()));
            let mut href = RefSim::new();
            for &(at, tag) in &events {
                let l = heap_log.clone();
                href.schedule_at(Time::from_ps(at), move |s| {
                    l.borrow_mut().push((s.now().as_ps(), tag));
                });
            }
            // Advance both in identical 100 ns horizon windows, scheduling a
            // straggler into the gap after each window (exercises rewind).
            for (w, straggler) in (1..=21u64).map(|w| (w, w % 3 == 0)) {
                let h = Time::from_ps(w * 100_000);
                sim.set_horizon(h);
                sim.run();
                href.set_horizon(h);
                href.run();
                if straggler && sim.now() < h {
                    let at = sim.now() + Span::from_ps(50);
                    let tag = 1000 + w;
                    let l = wheel_log.clone();
                    sim.schedule_at(at, move |s| l.borrow_mut().push((s.now().as_ps(), tag)));
                    let l = heap_log.clone();
                    href.schedule_at(at, move |s| l.borrow_mut().push((s.now().as_ps(), tag)));
                }
            }
            sim.set_horizon(Time::MAX);
            sim.run();
            href.set_horizon(Time::MAX);
            href.run();
            assert_eq!(*wheel_log.borrow(), *heap_log.borrow(), "seed {seed}");
        }
    }

    // ------------------------------------------------------------------
    // Slab recycling properties.
    // ------------------------------------------------------------------

    /// Freelist recycling never aliases a live event: across random
    /// schedule/fire interleavings every scheduled tag fires exactly once
    /// with its own payload, even though slots are heavily reused.
    #[test]
    fn slab_recycling_never_aliases_live_events() {
        for seed in 0..8u64 {
            let mut rng = SimRng::from_seed(seed).split("slab");
            let mut sim = Sim::new();
            let fired = Rc::new(RefCell::new(std::collections::HashMap::new()));
            let mut expected = Vec::new();
            let mut t = 0u64;
            for round in 0..200u64 {
                t += rng.next_u64() % 50;
                let tag = round;
                expected.push(tag);
                let f = fired.clone();
                sim.schedule_at(Time::from_ps(t), move |_| {
                    *f.borrow_mut().entry(tag).or_insert(0u32) += 1;
                });
                // Interleave dispatch so slots recycle while others are live.
                if round % 7 == 0 {
                    sim.set_event_budget(3);
                    sim.run();
                    sim.set_event_budget(u64::MAX);
                }
            }
            sim.run();
            let fired = fired.borrow();
            for tag in expected {
                assert_eq!(fired.get(&tag), Some(&1), "seed {seed}: tag {tag} fired != once");
            }
            // Slots were actually recycled: far fewer than one per event.
            assert!(sim.event_slots() < 200, "no recycling happened: {}", sim.event_slots());
        }
    }

    /// Cancellation tokens stay correct across slot recycling: a token
    /// cancels exactly its own event even when the event's slab slot has
    /// been recycled from (and is later recycled to) other events.
    #[test]
    fn slab_cancel_tokens_survive_recycling() {
        let mut sim = Sim::new();
        let fired = Rc::new(RefCell::new(Vec::new()));
        // Phase 1: burn slots so the freelist is warm.
        for i in 0..32u64 {
            let f = fired.clone();
            sim.schedule_at(Time::from_ps(i), move |_| f.borrow_mut().push(("warm", i)));
        }
        sim.run();
        // Phase 2: schedule cancellable events into recycled slots; cancel
        // odd ones *after* more recycling traffic has reused further slots.
        let mut tokens = Vec::new();
        for i in 0..32u64 {
            let c = Cancel::new();
            let f = fired.clone();
            let c2 = c.clone();
            sim.schedule_at(Time::from_ps(1000 + i), move |_| {
                if !c2.is_cancelled() {
                    f.borrow_mut().push(("live", i));
                }
            });
            tokens.push(c);
        }
        for i in 0..16u64 {
            let f = fired.clone();
            sim.schedule_at(Time::from_ps(500 + i), move |_| f.borrow_mut().push(("mid", i)));
        }
        for (i, c) in tokens.iter().enumerate() {
            if i % 2 == 1 {
                c.cancel();
            }
        }
        sim.run();
        let fired = fired.borrow();
        for i in 0..32u64 {
            let expect = i % 2 == 0;
            assert_eq!(
                fired.contains(&("live", i)),
                expect,
                "event {i}: cancellation crossed slots"
            );
        }
    }

    /// The slab capacity hint is inert: identical dispatch logs for wildly
    /// different hints.
    #[test]
    fn slab_capacity_hint_is_inert() {
        let run_with = |cap: usize| {
            let mut sim = Sim::with_event_capacity(cap);
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut rng = SimRng::from_seed(7).split("cap");
            for i in 0..300u64 {
                let at = rng.next_u64() % 10_000;
                let l = log.clone();
                sim.schedule_at(Time::from_ps(at), move |s| {
                    l.borrow_mut().push((s.now().as_ps(), i));
                });
            }
            sim.run();
            Rc::try_unwrap(log).unwrap().into_inner()
        };
        let a = run_with(0);
        let b = run_with(1);
        let c = run_with(4096);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }
}
