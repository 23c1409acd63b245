//! Dataset construction: where workloads lay out their core data structures.
//!
//! A [`Dataset`] couples the contents store, a bump allocator over the
//! address space, and a seeded RNG. Workloads build their structures here
//! once; the platform then serves the same bytes from either the device or
//! DRAM depending on the run's backing.
//!
//! A structure whose contents are a pure function of the word index is
//! registered with [`Dataset::generate`] instead of being written: its
//! words are computed when read, so a run pays nothing for the lines it
//! never touches. Structures that aggregate every key (a Bloom filter's
//! bit array, a hash table's buckets) are written as before.

use std::cell::RefCell;
use std::rc::Rc;

use kus_mem::alloc::{BumpAllocator, OutOfMemory};
use kus_mem::{Addr, ByteStore};
use kus_sim::SimRng;

/// The dataset under construction (and, later, under measurement).
#[derive(Debug)]
pub struct Dataset {
    store: Rc<RefCell<ByteStore>>,
    alloc: BumpAllocator,
    rng: SimRng,
}

impl Dataset {
    /// Creates an empty dataset of `capacity` bytes with workload RNG
    /// seeded from `seed`.
    pub fn new(capacity: u64, seed: u64) -> Dataset {
        Dataset {
            store: Rc::new(RefCell::new(ByteStore::new(capacity as usize))),
            alloc: BumpAllocator::new(Addr::ZERO, capacity),
            rng: SimRng::from_seed(seed).split("dataset"),
        }
    }

    /// The shared contents store.
    pub fn store(&self) -> Rc<RefCell<ByteStore>> {
        self.store.clone()
    }

    /// The allocator over the dataset address space.
    pub fn alloc(&mut self) -> &mut BumpAllocator {
        &mut self.alloc
    }

    /// A workload RNG sub-stream labelled `label` (order-independent).
    pub fn rng(&self, label: &str) -> SimRng {
        self.rng.split(label)
    }

    /// Allocates `lines` whole cache lines.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] if the space is exhausted.
    pub fn alloc_lines(&mut self, lines: u64) -> Result<Addr, OutOfMemory> {
        self.alloc.alloc_lines(lines)
    }

    /// Writes a `u64` during construction (zero simulated cost).
    pub fn write_u64(&self, addr: Addr, v: u64) {
        self.store.borrow_mut().write_u64(addr, v);
    }

    /// Makes the allocated range `[addr, addr + bytes)` read-only
    /// contents whose word `i`, at `addr + 8 * i`, is `word(i)`
    /// ([`ByteStore::generate`]). Nothing is written: every read computes
    /// the words it covers.
    ///
    /// # Panics
    ///
    /// Panics if the range is not word-aligned, lies outside the dataset,
    /// or overlaps another generated range.
    #[track_caller]
    pub fn generate(&self, addr: Addr, bytes: u64, word: impl Fn(u64) -> u64 + 'static) {
        self.store.borrow_mut().generate(addr, bytes, word);
    }

    /// Reads a `u64` during construction or verification (zero simulated
    /// cost).
    pub fn read_u64(&self, addr: Addr) -> u64 {
        self.store.borrow().read_u64(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_rw() {
        let mut d = Dataset::new(4096, 1);
        let a = d.alloc_lines(2).unwrap();
        d.write_u64(a, 99);
        assert_eq!(d.read_u64(a), 99);
    }

    #[test]
    fn generated_words_read_back() {
        let mut d = Dataset::new(4096, 1);
        let a = d.alloc_lines(2).unwrap();
        d.generate(a, 128, |i| i ^ 0x55);
        assert_eq!(d.read_u64(a + 8 * 15), 15 ^ 0x55);
    }

    #[test]
    fn rng_streams_are_stable() {
        let d1 = Dataset::new(64, 7);
        let d2 = Dataset::new(64, 7);
        assert_eq!(d1.rng("graph").next_u64(), d2.rng("graph").next_u64());
        assert_ne!(d1.rng("graph").next_u64(), d1.rng("keys").next_u64());
    }
}
