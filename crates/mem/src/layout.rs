//! Typed layout helpers over the dataset address space.
//!
//! Applications compute dataset addresses through these small descriptors
//! instead of raw pointer arithmetic, which keeps element sizes and bounds in
//! one place and panics loudly on out-of-bounds indices.

use crate::addr::Addr;
use crate::alloc::{BumpAllocator, OutOfMemory};
use crate::store::ByteStore;

/// A fixed-stride array of `len` elements of `elem_size` bytes.
///
/// # Examples
///
/// ```
/// use kus_mem::layout::ArrayLayout;
/// use kus_mem::addr::Addr;
///
/// let a = ArrayLayout::new(Addr::new(0x100), 8, 10);
/// assert_eq!(a.addr_of(3), Addr::new(0x118));
/// assert_eq!(a.byte_len(), 80);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayLayout {
    base: Addr,
    elem_size: u64,
    len: u64,
}

impl ArrayLayout {
    /// Describes an array at `base` with `len` elements of `elem_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `elem_size` is zero.
    pub fn new(base: Addr, elem_size: u64, len: u64) -> ArrayLayout {
        assert!(elem_size > 0, "element size must be non-zero");
        ArrayLayout { base, elem_size, len }
    }

    /// Allocates an array from `alloc`, aligned to its element size (power of
    /// two sizes) or 8 bytes otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] if the dataset region is exhausted.
    pub fn alloc(alloc: &mut BumpAllocator, elem_size: u64, len: u64) -> Result<ArrayLayout, OutOfMemory> {
        let align = if elem_size.is_power_of_two() { elem_size.max(1) } else { 8 };
        let base = alloc.alloc(elem_size * len, align)?;
        Ok(ArrayLayout::new(base, elem_size, len))
    }

    /// The first element's address.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Element count.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes per element.
    pub fn elem_size(&self) -> u64 {
        self.elem_size
    }

    /// Total bytes.
    pub fn byte_len(&self) -> u64 {
        self.elem_size * self.len
    }

    /// Address of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[track_caller]
    pub fn addr_of(&self, i: u64) -> Addr {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        self.base + i * self.elem_size
    }
}

/// A `u64` array layout with store-backed element access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct U64Array(ArrayLayout);

impl U64Array {
    /// Allocates `len` u64 elements.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] if the dataset region is exhausted.
    pub fn alloc(alloc: &mut BumpAllocator, len: u64) -> Result<U64Array, OutOfMemory> {
        Ok(U64Array(ArrayLayout::alloc(alloc, 8, len)?))
    }

    /// The underlying layout.
    pub fn layout(&self) -> ArrayLayout {
        self.0
    }

    /// Element count.
    pub fn len(&self) -> u64 {
        self.0.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Address of element `i`.
    #[track_caller]
    pub fn addr_of(&self, i: u64) -> Addr {
        self.0.addr_of(i)
    }

    /// Reads element `i` directly from the contents store (zero simulated
    /// cost — for dataset construction and result checking only).
    #[track_caller]
    pub fn get(&self, store: &ByteStore, i: u64) -> u64 {
        store.read_u64(self.0.addr_of(i))
    }

    /// Writes element `i` directly to the contents store (dataset
    /// construction only).
    #[track_caller]
    pub fn set(&self, store: &mut ByteStore, i: u64, v: u64) {
        store.write_u64(self.0.addr_of(i), v);
    }
}

/// A bit array layout packed into u64 words (e.g., a Bloom filter's bits).
///
/// # Examples
///
/// ```
/// use kus_mem::layout::BitArray;
/// use kus_mem::alloc::BumpAllocator;
/// use kus_mem::store::ByteStore;
/// use kus_mem::addr::Addr;
///
/// let mut alloc = BumpAllocator::new(Addr::ZERO, 4096);
/// let mut store = ByteStore::new(4096);
/// let bits = BitArray::alloc(&mut alloc, 1000)?;
/// bits.set(&mut store, 999);
/// assert!(bits.get(&store, 999));
/// assert!(!bits.get(&store, 0));
/// # Ok::<(), kus_mem::alloc::OutOfMemory>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitArray {
    words: U64Array,
    bits: u64,
}

impl BitArray {
    /// Allocates a zeroed bit array of `bits` bits.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] if the dataset region is exhausted.
    pub fn alloc(alloc: &mut BumpAllocator, bits: u64) -> Result<BitArray, OutOfMemory> {
        let words = U64Array::alloc(alloc, bits.div_ceil(64))?;
        Ok(BitArray { words, bits })
    }

    /// The address of the u64 word holding `bit` (the address a timed probe
    /// must load).
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of bounds.
    #[track_caller]
    pub fn word_addr(&self, bit: u64) -> Addr {
        assert!(bit < self.bits, "bit {bit} out of bounds ({})", self.bits);
        self.words.addr_of(bit / 64)
    }

    /// The mask selecting `bit` within its word.
    pub fn mask(bit: u64) -> u64 {
        1u64 << (bit % 64)
    }

    /// Tests `bit` directly against the contents store.
    #[track_caller]
    pub fn get(&self, store: &ByteStore, bit: u64) -> bool {
        store.read_u64(self.word_addr(bit)) & Self::mask(bit) != 0
    }

    /// Sets `bit` in the contents store (dataset construction only).
    #[track_caller]
    pub fn set(&self, store: &mut ByteStore, bit: u64) {
        let a = self.word_addr(bit);
        let w = store.read_u64(a);
        store.write_u64(a, w | Self::mask(bit));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_addressing() {
        let a = ArrayLayout::new(Addr::new(64), 4, 16);
        assert_eq!(a.addr_of(0), Addr::new(64));
        assert_eq!(a.addr_of(15), Addr::new(124));
        assert_eq!(a.byte_len(), 64);
        assert!(!a.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn array_oob_panics() {
        let a = ArrayLayout::new(Addr::ZERO, 8, 2);
        let _ = a.addr_of(2);
    }

    #[test]
    fn u64_array_round_trip() {
        let mut alloc = BumpAllocator::new(Addr::ZERO, 1024);
        let mut store = ByteStore::new(1024);
        let arr = U64Array::alloc(&mut alloc, 10).unwrap();
        for i in 0..10 {
            arr.set(&mut store, i, i * i);
        }
        for i in 0..10 {
            assert_eq!(arr.get(&store, i), i * i);
        }
    }

    #[test]
    fn bit_array_word_boundaries() {
        let mut alloc = BumpAllocator::new(Addr::ZERO, 1024);
        let mut store = ByteStore::new(1024);
        let bits = BitArray::alloc(&mut alloc, 130).unwrap();
        for b in [0u64, 63, 64, 127, 128, 129] {
            assert!(!bits.get(&store, b));
            bits.set(&mut store, b);
            assert!(bits.get(&store, b));
        }
        // Neighbours untouched.
        assert!(!bits.get(&store, 1));
        assert!(!bits.get(&store, 65));
        // Words 0 and 1 live at different addresses.
        assert_ne!(bits.word_addr(0), bits.word_addr(64));
        assert_eq!(bits.word_addr(0), bits.word_addr(63));
    }

    #[test]
    fn alloc_alignment() {
        let mut alloc = BumpAllocator::new(Addr::new(1), 4096);
        let a = ArrayLayout::alloc(&mut alloc, 8, 4).unwrap();
        assert!(a.base().is_aligned(8));
        let b = ArrayLayout::alloc(&mut alloc, 12, 4).unwrap();
        assert!(b.base().is_aligned(8) || b.base().is_aligned(4));
    }
}
