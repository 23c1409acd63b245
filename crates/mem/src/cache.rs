//! A set-associative, LRU, tag-only cache model.
//!
//! Used as the per-core L1 over dataset lines. The study's workloads access
//! distinct lines on purpose (no locality), so the cache's main role is the
//! prefetch mechanism's contract: a completed `prefetcht0` installs the line
//! in the requesting core's L1 so the follow-up load hits.

use crate::addr::LineAddr;
use kus_sim::stats::Counter;
use kus_sim::trace::EventName;
use kus_sim::Tracer;

/// Per-way metadata.
#[derive(Debug, Clone, Copy)]
struct Way {
    tag: LineAddr,
    valid: bool,
    /// Monotone stamp; larger = more recently used.
    lru: u64,
}

/// A set-associative cache with LRU replacement, tracking tags only.
///
/// # Examples
///
/// ```
/// use kus_mem::cache::SetAssocCache;
/// use kus_mem::addr::LineAddr;
///
/// let mut l1 = SetAssocCache::new(64, 8); // 32 KiB of 64 B lines
/// let line = LineAddr::from_index(42);
/// assert!(!l1.probe(line));
/// l1.fill(line);
/// assert!(l1.access(line));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    data: Vec<Way>,
    stamp: u64,
    /// Demand accesses that hit.
    pub hits: Counter,
    /// Demand accesses that missed.
    pub misses: Counter,
    /// Valid lines evicted by fills.
    pub evictions: Counter,
    tracer: Tracer,
    track: u32,
}

impl SetAssocCache {
    /// Creates a cache with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or either dimension is zero.
    pub fn new(sets: usize, ways: usize) -> SetAssocCache {
        assert!(sets > 0 && sets.is_power_of_two(), "sets must be a power of two");
        assert!(ways > 0, "ways must be non-zero");
        SetAssocCache {
            sets,
            ways,
            data: vec![Way { tag: LineAddr::from_index(0), valid: false, lru: 0 }; sets * ways],
            stamp: 0,
            hits: Counter::default(),
            misses: Counter::default(),
            evictions: Counter::default(),
            tracer: Tracer::off(),
            track: 0,
        }
    }

    /// Attaches a tracer; `track` is the timeline row (the owning core id).
    pub fn set_tracer(&mut self, tracer: Tracer, track: u32) {
        self.tracer = tracer;
        self.track = track;
    }

    /// A 32 KiB, 8-way L1D of 64-byte lines (the reproduced host's L1).
    pub fn l1d_default() -> SetAssocCache {
        SetAssocCache::new(64, 8)
    }

    /// Total line capacity.
    pub fn capacity_lines(&self) -> usize {
        self.sets * self.ways
    }

    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        let set = (line.index() as usize) & (self.sets - 1);
        set * self.ways..(set + 1) * self.ways
    }

    /// Checks for presence without updating LRU or counters.
    pub fn probe(&self, line: LineAddr) -> bool {
        self.data[self.set_range(line)].iter().any(|w| w.valid && w.tag == line)
    }

    /// A demand access: returns hit/miss, updates LRU and counters.
    pub fn access(&mut self, line: LineAddr) -> bool {
        self.stamp += 1;
        let stamp = self.stamp;
        let range = self.set_range(line);
        for w in &mut self.data[range] {
            if w.valid && w.tag == line {
                w.lru = stamp;
                self.hits.incr();
                return true;
            }
        }
        self.misses.incr();
        false
    }

    /// Installs `line`, evicting the LRU way if needed. Returns the evicted
    /// line, if any. Filling an already-present line just refreshes LRU.
    pub fn fill(&mut self, line: LineAddr) -> Option<LineAddr> {
        self.stamp += 1;
        let stamp = self.stamp;
        let range = self.set_range(line);
        // Already present?
        for w in &mut self.data[range.clone()] {
            if w.valid && w.tag == line {
                w.lru = stamp;
                return None;
            }
        }
        // Prefer an invalid way.
        let set = &mut self.data[range];
        let victim = match set.iter_mut().find(|w| !w.valid) {
            Some(w) => w,
            None => set.iter_mut().min_by_key(|w| w.lru).expect("non-empty set"),
        };
        let evicted = victim.valid.then_some(victim.tag);
        if let Some(old) = evicted {
            self.evictions.incr();
            self.tracer.instant(EventName::L1Evict, self.track, old.index(), line.index());
        }
        *victim = Way { tag: line, valid: true, lru: stamp };
        evicted
    }

    /// Removes `line` if present; returns whether it was present.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let range = self.set_range(line);
        for w in &mut self.data[range] {
            if w.valid && w.tag == line {
                w.valid = false;
                return true;
            }
        }
        false
    }

    /// Invalidates everything.
    pub fn flush(&mut self) {
        for w in &mut self.data {
            w.valid = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(i: u64) -> LineAddr {
        LineAddr::from_index(i)
    }

    #[test]
    fn fill_then_hit() {
        let mut c = SetAssocCache::new(4, 2);
        assert!(!c.access(line(1)));
        c.fill(line(1));
        assert!(c.access(line(1)));
        assert_eq!(c.hits.get(), 1);
        assert_eq!(c.misses.get(), 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = SetAssocCache::new(1, 2);
        c.fill(line(1));
        c.fill(line(2));
        assert!(c.access(line(1))); // 1 is now MRU
        let evicted = c.fill(line(3));
        assert_eq!(evicted, Some(line(2)));
        assert!(c.probe(line(1)));
        assert!(!c.probe(line(2)));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = SetAssocCache::new(2, 1);
        c.fill(line(0)); // set 0
        c.fill(line(1)); // set 1
        assert!(c.probe(line(0)));
        assert!(c.probe(line(1)));
        c.fill(line(2)); // set 0 again, evicts 0
        assert!(!c.probe(line(0)));
        assert!(c.probe(line(1)));
    }

    #[test]
    fn refill_refreshes_lru_without_eviction() {
        let mut c = SetAssocCache::new(1, 2);
        c.fill(line(1));
        c.fill(line(2));
        assert_eq!(c.fill(line(1)), None); // refresh
        assert_eq!(c.fill(line(3)), Some(line(2)));
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = SetAssocCache::l1d_default();
        assert_eq!(c.capacity_lines(), 512);
        c.fill(line(7));
        assert!(c.invalidate(line(7)));
        assert!(!c.invalidate(line(7)));
        c.fill(line(8));
        c.flush();
        assert!(!c.probe(line(8)));
    }

    #[test]
    fn probe_does_not_count() {
        let c = SetAssocCache::new(2, 1);
        c.probe(line(0));
        assert_eq!(c.hits.get() + c.misses.get(), 0);
    }
}
