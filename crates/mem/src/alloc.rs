//! A bump allocator for laying out application data in the dataset space.

use std::error::Error;
use std::fmt;

use crate::addr::Addr;

/// Error returned when an allocation does not fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory {
    requested: u64,
    available: u64,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dataset allocation of {} bytes exceeds remaining capacity {}",
            self.requested, self.available
        )
    }
}

impl Error for OutOfMemory {}

/// A monotone bump allocator over an address range.
///
/// Applications carve their core data structures (CSR arrays, hash buckets,
/// Bloom bit arrays, …) out of the dataset space with this; there is no
/// `free` — a run lays out its dataset once.
///
/// # Examples
///
/// ```
/// use kus_mem::alloc::BumpAllocator;
/// use kus_mem::addr::Addr;
///
/// let mut a = BumpAllocator::new(Addr::ZERO, 4096);
/// let x = a.alloc(100, 64)?;
/// let y = a.alloc(8, 8)?;
/// assert!(x.is_aligned(64));
/// assert!(y.raw() >= x.raw() + 100);
/// # Ok::<(), kus_mem::alloc::OutOfMemory>(())
/// ```
#[derive(Debug, Clone)]
pub struct BumpAllocator {
    next: Addr,
    end: Addr,
}

impl BumpAllocator {
    /// Creates an allocator over `[base, base + capacity)`.
    pub fn new(base: Addr, capacity: u64) -> BumpAllocator {
        BumpAllocator { next: base, end: base + capacity }
    }

    /// Allocates `size` bytes at `align` alignment.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] if the aligned allocation does not fit.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn alloc(&mut self, size: u64, align: u64) -> Result<Addr, OutOfMemory> {
        let base = self.next.align_up(align);
        match base.raw().checked_add(size) {
            Some(end) if end <= self.end.raw() => {
                self.next = Addr::new(end);
                Ok(base)
            }
            _ => Err(OutOfMemory {
                requested: size,
                available: self.end.raw().saturating_sub(base.raw()),
            }),
        }
    }

    /// Allocates a whole number of cache lines (64-byte aligned).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] if the allocation does not fit.
    pub fn alloc_lines(&mut self, lines: u64) -> Result<Addr, OutOfMemory> {
        // A count past the address space saturates, and so cannot fit.
        self.alloc(lines.saturating_mul(crate::addr::LINE_BYTES), crate::addr::LINE_BYTES)
    }

    /// Bytes remaining (from the current unaligned cursor).
    pub fn remaining(&self) -> u64 {
        self.end.raw() - self.next.raw()
    }

    /// The next (unaligned) free address.
    pub fn cursor(&self) -> Addr {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_non_overlapping() {
        let mut a = BumpAllocator::new(Addr::ZERO, 1000);
        let x = a.alloc(10, 1).unwrap();
        let y = a.alloc(10, 1).unwrap();
        assert_eq!(x.raw(), 0);
        assert_eq!(y.raw(), 10);
        assert_eq!(a.remaining(), 980);
    }

    #[test]
    fn a_size_past_the_address_space_does_not_fit() {
        let mut a = BumpAllocator::new(Addr::new(64), 1000);
        assert!(a.alloc(u64::MAX - 8, 1).is_err());
        assert!(a.alloc_lines(u64::MAX / 32).is_err());
        assert_eq!(a.remaining(), 1000);
    }

    #[test]
    fn respects_alignment() {
        let mut a = BumpAllocator::new(Addr::new(1), 1000);
        let x = a.alloc(8, 64).unwrap();
        assert!(x.is_aligned(64));
    }

    #[test]
    fn out_of_memory() {
        let mut a = BumpAllocator::new(Addr::ZERO, 100);
        assert!(a.alloc(64, 1).is_ok());
        let err = a.alloc(64, 1).unwrap_err();
        assert_eq!(err.available, 36);
        let msg = err.to_string();
        assert!(msg.contains("64"), "{msg}");
    }

    #[test]
    fn alloc_lines_is_line_aligned() {
        let mut a = BumpAllocator::new(Addr::new(3), 1024);
        let x = a.alloc_lines(2).unwrap();
        assert!(x.is_aligned(64));
        assert_eq!(a.cursor().raw(), x.raw() + 128);
    }
}
