//! Chip-level shared queues ("uncore" credits).
//!
//! The paper experimentally finds a **14-entry shared queue** between the
//! cores and the PCIe controller that caps simultaneous device accesses from
//! the whole chip (Fig. 5), while the DRAM path sustains at least 48
//! outstanding accesses. It treats both as opaque occupancy limits; we model
//! them the same way: a credit pool shared by all cores, one credit held per
//! in-flight access on that path.

use std::collections::VecDeque;

use kus_sim::event::EventFn;
use kus_sim::stats::{Counter, Gauge};
use kus_sim::trace::{Category, TraceClass};
use kus_sim::{Sim, Time, Tracer};

/// A shared occupancy-limited credit pool with FIFO retry notification.
///
/// # Examples
///
/// ```
/// use kus_mem::uncore::CreditQueue;
/// use kus_sim::{Sim, Time};
///
/// let mut sim = Sim::new();
/// let mut q = CreditQueue::new("pcie-path", 2);
/// assert!(q.try_acquire(sim.now()));
/// assert!(q.try_acquire(sim.now()));
/// assert!(!q.try_acquire(sim.now()));
/// q.release(&mut sim);
/// assert!(q.try_acquire(sim.now()));
/// ```
pub struct CreditQueue {
    name: &'static str,
    capacity: usize,
    in_use: usize,
    waiters: VecDeque<EventFn>,
    occupancy: Gauge,
    tracer: Tracer,
    track: u32,
    /// Successful credit grants.
    pub grants: Counter,
    /// Failed acquisition attempts.
    pub rejections: Counter,
}

impl std::fmt::Display for CreditQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}/{} credits in use", self.name, self.in_use, self.capacity)
    }
}

impl std::fmt::Debug for CreditQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CreditQueue")
            .field("name", &self.name)
            .field("capacity", &self.capacity)
            .field("in_use", &self.in_use)
            .field("waiting", &self.waiters.len())
            .finish()
    }
}

impl CreditQueue {
    /// The chip-level device-path queue occupancy the paper measured on its
    /// Xeon host ("we have experimentally verified that the maximum occupancy
    /// of this queue is 14").
    pub const XEON_DEVICE_PATH: usize = 14;
    /// A lower bound on the DRAM-path occupancy the paper verified ("at least
    /// 48 simultaneous accesses can be outstanding to DRAM").
    pub const XEON_DRAM_PATH: usize = 48;

    /// Creates a pool of `capacity` credits.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(name: &'static str, capacity: usize) -> CreditQueue {
        assert!(capacity > 0, "credit capacity must be non-zero");
        CreditQueue {
            name,
            capacity,
            in_use: 0,
            waiters: VecDeque::new(),
            occupancy: Gauge::new(),
            tracer: Tracer::off(),
            track: 0,
            grants: Counter::default(),
            rejections: Counter::default(),
        }
    }

    /// Attaches a tracer; `track` is the timeline row (by convention 400
    /// for the device path, 401 for the DRAM path — see `kus-profile`).
    /// The queue emits `credit.occ` occupancy counters at each grant, only
    /// when profiling is enabled.
    pub fn set_tracer(&mut self, tracer: Tracer, track: u32) {
        self.tracer = tracer;
        self.track = track;
    }

    /// The queue's label (for reports).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Total credits.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Credits currently held.
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Time-weighted occupancy gauge.
    pub fn occupancy(&self) -> &Gauge {
        &self.occupancy
    }

    /// Attempts to take one credit; returns whether it succeeded.
    pub fn try_acquire(&mut self, now: Time) -> bool {
        if self.in_use == self.capacity {
            self.rejections.incr();
            return false;
        }
        self.in_use += 1;
        self.grants.incr();
        self.occupancy.set(now, self.in_use as u64);
        if self.tracer.wants(TraceClass::Profile) {
            self.tracer.counter(Category::Mem, "credit.occ", self.track, self.in_use as u64);
        }
        true
    }

    /// Returns one credit and wakes the oldest waiter, if any.
    ///
    /// # Panics
    ///
    /// Panics if no credits are held.
    pub fn release(&mut self, sim: &mut Sim) {
        assert!(self.in_use > 0, "{}: release without acquire", self.name);
        self.in_use -= 1;
        self.occupancy.set(sim.now(), self.in_use as u64);
        if let Some(w) = self.waiters.pop_front() {
            sim.schedule_now(w);
        }
    }

    /// Registers a callback to run (once) after the next credit frees. The
    /// callback should retry acquisition and re-register on failure.
    pub fn wait(&mut self, f: impl FnOnce(&mut Sim) + 'static) {
        self.waiters.push_back(Box::new(f));
    }

    /// Number of registered waiters.
    pub fn waiting(&self) -> usize {
        self.waiters.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn exhausts_and_recovers() {
        let mut sim = Sim::new();
        let mut q = CreditQueue::new("t", 1);
        assert!(q.try_acquire(sim.now()));
        assert!(!q.try_acquire(sim.now()));
        assert_eq!(q.rejections.get(), 1);
        q.release(&mut sim);
        assert!(q.try_acquire(sim.now()));
        assert_eq!(q.grants.get(), 2);
    }

    #[test]
    fn waiters_fifo() {
        let mut sim = Sim::new();
        let q = Rc::new(std::cell::RefCell::new(CreditQueue::new("t", 1)));
        assert!(q.borrow_mut().try_acquire(sim.now()));

        let order = Rc::new(std::cell::RefCell::new(Vec::new()));
        for i in 0..3 {
            let o = order.clone();
            q.borrow_mut().wait(move |_| o.borrow_mut().push(i));
        }
        assert_eq!(q.borrow().waiting(), 3);

        // Three releases wake three waiters in FIFO order.
        q.borrow_mut().release(&mut sim);
        assert!(q.borrow_mut().try_acquire(sim.now()));
        q.borrow_mut().release(&mut sim);
        assert!(q.borrow_mut().try_acquire(sim.now()));
        q.borrow_mut().release(&mut sim);
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "release without acquire")]
    fn release_underflow_panics() {
        let mut sim = Sim::new();
        let mut q = CreditQueue::new("t", 1);
        q.release(&mut sim);
    }

    #[test]
    fn occupancy_max_tracks_peak() {
        let mut sim = Sim::new();
        let mut q = CreditQueue::new("t", 14);
        for _ in 0..14 {
            assert!(q.try_acquire(sim.now()));
        }
        assert_eq!(q.occupancy().max(), 14);
        for _ in 0..14 {
            q.release(&mut sim);
        }
        assert_eq!(q.in_use(), 0);
    }

    #[test]
    fn woken_waiter_can_reacquire() {
        let mut sim = Sim::new();
        let q = Rc::new(std::cell::RefCell::new(CreditQueue::new("t", 1)));
        assert!(q.borrow_mut().try_acquire(sim.now()));
        let got = Rc::new(Cell::new(false));
        {
            let q2 = q.clone();
            let got = got.clone();
            q.borrow_mut().wait(move |sim| {
                assert!(q2.borrow_mut().try_acquire(sim.now()));
                got.set(true);
            });
        }
        q.borrow_mut().release(&mut sim);
        sim.run();
        assert!(got.get());
        assert_eq!(q.borrow().in_use(), 1);
    }
}
