//! Line Fill Buffers (LFBs) — Intel's name for the miss status holding
//! registers that track a core's outstanding cache misses.
//!
//! The paper's central single-core finding is that Xeon cores expose **at
//! most 10 LFBs**, capping in-flight device accesses per core and flattening
//! the prefetch mechanism's scaling beyond 10 threads (Fig. 3) and beyond
//! 10/MLP threads with batched accesses (Fig. 6). This module models that
//! structure exactly: a fixed pool of entries keyed by line address, with
//! MSHR merge semantics (a second request to a pending line piggybacks on the
//! existing entry rather than allocating a new one).

use std::collections::VecDeque;

use kus_sim::event::EventFn;
use kus_sim::stats::{Counter, Gauge};
use kus_sim::trace::{EventName, TraceClass};
use kus_sim::{Sim, Time, Tracer};

use crate::addr::LineAddr;

/// An opaque token the owner attaches to a pending line; returned when the
/// fill completes (e.g., "op #n of fiber f is waiting on this line").
pub type WaiterToken = u64;

/// Error returned by [`LfbPool::try_allocate`] when every buffer is in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LfbFull;

impl std::fmt::Display for LfbFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "all line fill buffers are in use")
    }
}

impl std::error::Error for LfbFull {}

#[derive(Debug)]
struct Entry {
    line: LineAddr,
    tokens: Vec<WaiterToken>,
}

/// A fixed pool of line fill buffers with MSHR merge semantics.
///
/// # Examples
///
/// ```
/// use kus_mem::lfb::LfbPool;
/// use kus_mem::addr::LineAddr;
/// use kus_sim::{Sim, Time};
///
/// let mut sim = Sim::new();
/// let mut lfb = LfbPool::new(2);
/// let line = LineAddr::from_index(9);
/// lfb.try_allocate(sim.now(), line, None)?;
/// assert!(lfb.merge(line, 77)); // a later load piggybacks
/// let tokens = lfb.complete(&mut sim, line);
/// assert_eq!(tokens, vec![77]);
/// assert_eq!(lfb.in_use(), 0);
/// # Ok::<(), kus_mem::lfb::LfbFull>(())
/// ```
pub struct LfbPool {
    capacity: usize,
    entries: Vec<Entry>,
    slot_waiters: VecDeque<EventFn>,
    occupancy: Gauge,
    tracer: Tracer,
    track: u32,
    /// Successful allocations.
    pub allocations: Counter,
    /// Requests merged into an already-pending entry.
    pub merges: Counter,
    /// Allocation attempts rejected because the pool was full.
    pub full_rejections: Counter,
}

impl std::fmt::Debug for LfbPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LfbPool")
            .field("capacity", &self.capacity)
            .field("in_use", &self.entries.len())
            .field("slot_waiters", &self.slot_waiters.len())
            .finish()
    }
}

impl LfbPool {
    /// The per-core LFB count of the reproduced host ("all state-of-the-art
    /// Xeon server processors have at most 10 LFBs per core").
    pub const XEON_LFB_COUNT: usize = 10;

    /// Creates a pool of `capacity` buffers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> LfbPool {
        assert!(capacity > 0, "LFB capacity must be non-zero");
        LfbPool {
            capacity,
            entries: Vec::with_capacity(capacity),
            slot_waiters: VecDeque::new(),
            occupancy: Gauge::new(),
            tracer: Tracer::off(),
            track: 0,
            allocations: Counter::default(),
            merges: Counter::default(),
            full_rejections: Counter::default(),
        }
    }

    /// Total number of buffers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Buffers currently tracking a pending fill.
    pub fn in_use(&self) -> usize {
        self.entries.len()
    }

    /// Whether `line` has a pending fill.
    pub fn is_pending(&self, line: LineAddr) -> bool {
        self.entries.iter().any(|e| e.line == line)
    }

    /// Time-weighted occupancy gauge (max/average).
    pub fn occupancy(&self) -> &Gauge {
        &self.occupancy
    }

    /// Attaches a tracer; `track` is the timeline row (the owning core id).
    pub fn set_tracer(&mut self, tracer: Tracer, track: u32) {
        self.tracer = tracer;
        self.track = track;
    }

    /// Allocates a buffer for `line`, optionally attaching a waiter token.
    ///
    /// # Errors
    ///
    /// Returns [`LfbFull`] when all buffers are in use (the caller should
    /// stall and retry on [`wait_for_slot`](Self::wait_for_slot) callbacks —
    /// modelling the back-pressure that flattens the paper's curves).
    ///
    /// # Panics
    ///
    /// Panics if `line` is already pending; callers must [`merge`](Self::merge)
    /// instead (probe with [`is_pending`](Self::is_pending)).
    pub fn try_allocate(
        &mut self,
        now: Time,
        line: LineAddr,
        token: Option<WaiterToken>,
    ) -> Result<(), LfbFull> {
        assert!(!self.is_pending(line), "line {line} already pending; use merge");
        if self.entries.len() == self.capacity {
            self.full_rejections.incr();
            self.tracer.instant(EventName::LfbFull, self.track, line.index(), self.capacity as u64);
            return Err(LfbFull);
        }
        self.entries.push(Entry { line, tokens: token.into_iter().collect() });
        self.allocations.incr();
        self.occupancy.set(now, self.entries.len() as u64);
        self.tracer.instant(EventName::LfbAlloc, self.track, line.index(), self.entries.len() as u64);
        Ok(())
    }

    /// Attaches `token` to the pending entry for `line`, if one exists.
    /// Returns whether a merge happened.
    pub fn merge(&mut self, line: LineAddr, token: WaiterToken) -> bool {
        if let Some(e) = self.entries.iter_mut().find(|e| e.line == line) {
            e.tokens.push(token);
            self.merges.incr();
            self.tracer.instant(EventName::LfbMerge, self.track, line.index(), self.entries.len() as u64);
            true
        } else {
            false
        }
    }

    /// Completes the fill for `line`: frees the buffer, wakes **all** slot
    /// waiters, and returns the attached waiter tokens in attach order.
    ///
    /// All waiters are woken (in FIFO order) rather than one per freed slot:
    /// a woken waiter may no longer need a buffer at all (its line arrived
    /// in the cache, or it can merge into a newer pending entry), and waking
    /// only one would then strand the rest. Waiters that still need a slot
    /// and lose the race simply re-register.
    ///
    /// # Panics
    ///
    /// Panics if `line` is not pending.
    pub fn complete(&mut self, sim: &mut Sim, line: LineAddr) -> Vec<WaiterToken> {
        let idx = self
            .entries
            .iter()
            .position(|e| e.line == line)
            .unwrap_or_else(|| panic!("completing non-pending line {line}"));
        let entry = self.entries.swap_remove(idx);
        self.occupancy.set(sim.now(), self.entries.len() as u64);
        self.tracer.instant(EventName::LfbFill, self.track, line.index(), self.entries.len() as u64);
        for w in self.slot_waiters.drain(..) {
            sim.schedule_boxed_at(sim.now(), w);
        }
        entry.tokens
    }

    /// Registers a callback to run (once) after the next buffer frees.
    ///
    /// The callback should retry its allocation; the freed slot is *not*
    /// reserved, so the retry may fail again under same-instant contention,
    /// in which case the caller simply re-registers.
    pub fn wait_for_slot(&mut self, f: impl FnOnce(&mut Sim) + 'static) {
        self.slot_waiters.push_back(Box::new(f));
        if self.tracer.wants(TraceClass::Profile) {
            self.tracer.instant(EventName::LfbWait, self.track, 0, self.slot_waiters.len() as u64);
        }
    }

    /// Number of callbacks waiting for a free buffer.
    pub fn waiting(&self) -> usize {
        self.slot_waiters.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    fn line(i: u64) -> LineAddr {
        LineAddr::from_index(i)
    }

    #[test]
    fn allocate_until_full() {
        let mut sim = Sim::new();
        let mut lfb = LfbPool::new(3);
        for i in 0..3 {
            lfb.try_allocate(sim.now(), line(i), None).unwrap();
        }
        assert_eq!(lfb.try_allocate(sim.now(), line(99), None), Err(LfbFull));
        assert_eq!(lfb.in_use(), 3);
        assert_eq!(lfb.full_rejections.get(), 1);
        let _ = lfb.complete(&mut sim, line(1));
        assert!(lfb.try_allocate(sim.now(), line(99), None).is_ok());
    }

    #[test]
    fn merge_collects_tokens_in_order() {
        let mut sim = Sim::new();
        let mut lfb = LfbPool::new(2);
        lfb.try_allocate(sim.now(), line(5), Some(1)).unwrap();
        assert!(lfb.merge(line(5), 2));
        assert!(lfb.merge(line(5), 3));
        assert!(!lfb.merge(line(6), 9));
        assert_eq!(lfb.complete(&mut sim, line(5)), vec![1, 2, 3]);
        assert_eq!(lfb.merges.get(), 2);
    }

    #[test]
    fn slot_waiter_woken_on_completion() {
        let mut sim = Sim::new();
        let lfb = Rc::new(std::cell::RefCell::new(LfbPool::new(1)));
        lfb.borrow_mut().try_allocate(sim.now(), line(1), None).unwrap();

        let woke = Rc::new(Cell::new(false));
        let w = woke.clone();
        lfb.borrow_mut().wait_for_slot(move |_| w.set(true));
        assert_eq!(lfb.borrow().waiting(), 1);

        lfb.borrow_mut().complete(&mut sim, line(1));
        sim.run();
        assert!(woke.get());
        assert_eq!(lfb.borrow().waiting(), 0);
    }

    #[test]
    #[should_panic(expected = "already pending")]
    fn double_allocate_panics() {
        let mut lfb = LfbPool::new(2);
        lfb.try_allocate(Time::ZERO, line(1), None).unwrap();
        let _ = lfb.try_allocate(Time::ZERO, line(1), None);
    }

    #[test]
    #[should_panic(expected = "non-pending")]
    fn completing_unknown_line_panics() {
        let mut sim = Sim::new();
        let mut lfb = LfbPool::new(1);
        let _ = lfb.complete(&mut sim, line(1));
    }

    #[test]
    fn occupancy_gauge_tracks_max() {
        let mut sim = Sim::new();
        let mut lfb = LfbPool::new(4);
        for i in 0..4 {
            lfb.try_allocate(sim.now(), line(i), None).unwrap();
        }
        for i in 0..4 {
            lfb.complete(&mut sim, line(i));
        }
        assert_eq!(lfb.occupancy().max(), 4);
        assert_eq!(lfb.in_use(), 0);
    }
}
