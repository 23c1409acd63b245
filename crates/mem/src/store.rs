//! The dataset contents: a flat little-endian byte store with read-only
//! generated regions.
//!
//! Timing and contents are deliberately separated in this workspace. The
//! timing models (caches, LFBs, PCIe, the device emulator) decide *when* a
//! value arrives; [`ByteStore`] holds *what* the value is. The FPGA emulator
//! in the paper needed on-board DRAM for the same reason: pointer-chasing
//! applications must receive real data or they diverge.
//!
//! Contents that are a pure function of their word index (a key-value
//! store's value bodies, a service's probe ring) need not be written at all:
//! [`ByteStore::generate`] registers the function for a word-aligned range,
//! and every read of that range computes the words it covers. A store with
//! no generated region reads its flat bytes exactly as it always did.

use std::fmt;
use std::rc::Rc;

use crate::addr::{Addr, LINE_BYTES};

/// A read-only range `[start, end)` whose word `i` (at `start + 8 * i`) is
/// `word(i)`.
#[derive(Clone)]
struct Region {
    start: u64,
    end: u64,
    word: Rc<dyn Fn(u64) -> u64>,
}

impl Region {
    fn overlaps(&self, start: u64, end: u64) -> bool {
        start < self.end && self.start < end
    }
}

/// A fixed-capacity, byte-addressable memory holding the dataset contents.
///
/// All multi-byte accessors are little-endian (matching the reproduced x86
/// host). A store belongs to one run on one thread, so its generated
/// regions hold their word functions behind an `Rc`.
///
/// # Examples
///
/// ```
/// use kus_mem::{addr::Addr, store::ByteStore};
///
/// let mut m = ByteStore::new(1024);
/// m.write_u64(Addr::new(8), 0xdead_beef);
/// assert_eq!(m.read_u64(Addr::new(8)), 0xdead_beef);
/// assert_eq!(m.read_u32(Addr::new(8)), 0xdead_beef);
///
/// // Words 0..8 of a generated line read as `i * 3`, at any width.
/// m.generate(Addr::new(64), 64, |i| i * 3);
/// assert_eq!(m.read_u64(Addr::new(64 + 2 * 8)), 6);
/// assert_eq!(m.read_u8(Addr::new(64 + 3 * 8)), 9);
/// ```
#[derive(Clone)]
pub struct ByteStore {
    bytes: Vec<u8>,
    /// Generated regions, sorted by start and disjoint. The flat bytes
    /// under a region are never read or written.
    regions: Vec<Region>,
}

impl fmt::Debug for ByteStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ByteStore")
            .field("len", &self.bytes.len())
            .field("regions", &self.regions.iter().map(|g| g.start..g.end).collect::<Vec<_>>())
            .finish()
    }
}

impl ByteStore {
    /// Creates a zero-filled store of `capacity` bytes.
    pub fn new(capacity: usize) -> ByteStore {
        ByteStore { bytes: vec![0; capacity], regions: Vec::new() }
    }

    /// Capacity in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if the store has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    #[track_caller]
    fn range(&self, addr: Addr, len: usize) -> std::ops::Range<usize> {
        let start = addr.raw() as usize;
        let end = start.checked_add(len).expect("address overflow");
        assert!(
            end <= self.bytes.len(),
            "out-of-bounds access: {addr}+{len} exceeds capacity {}",
            self.bytes.len()
        );
        start..end
    }

    /// [`range`](Self::range) for a write, which must not touch a
    /// generated region.
    #[track_caller]
    fn write_range(&self, addr: Addr, len: usize) -> std::ops::Range<usize> {
        let r = self.range(addr, len);
        if let Some(g) = self.regions.iter().find(|g| g.overlaps(r.start as u64, r.end as u64)) {
            panic!(
                "write into a generated region: {addr}+{len} overlaps {:#x}..{:#x}",
                g.start, g.end
            );
        }
        r
    }

    /// Makes `[addr, addr + bytes)` a read-only generated region: its word
    /// `i`, at `addr + 8 * i`, reads as `word(i)` through every accessor,
    /// at any width and alignment. The region's flat bytes are never
    /// touched, so a large region costs no memory.
    ///
    /// # Panics
    ///
    /// Panics if `addr` or `bytes` is not a multiple of 8, if the range is
    /// out of bounds, or if it overlaps a region already registered.
    #[track_caller]
    pub fn generate(&mut self, addr: Addr, bytes: u64, word: impl Fn(u64) -> u64 + 'static) {
        assert!(
            addr.raw().is_multiple_of(8) && bytes.is_multiple_of(8),
            "generated region {addr}+{bytes} is not word-aligned"
        );
        let len = usize::try_from(bytes).expect("address overflow");
        let r = self.range(addr, len);
        let (start, end) = (r.start as u64, r.end as u64);
        if let Some(g) = self.regions.iter().find(|g| g.overlaps(start, end)) {
            panic!(
                "generated region {addr}+{bytes} overlaps generated region {:#x}..{:#x}",
                g.start, g.end
            );
        }
        let at = self.regions.partition_point(|g| g.start < start);
        self.regions.insert(at, Region { start, end, word: Rc::new(word) });
    }

    /// Lays the generated words over `out`, which holds the flat bytes at
    /// `start`. Kept out of line so that a store without regions reads
    /// through the short flat path alone.
    #[inline(never)]
    fn overlay(&self, start: u64, out: &mut [u8]) {
        let end = start + out.len() as u64;
        for g in self.regions.iter().filter(|g| g.overlaps(start, end)) {
            let mut a = start.max(g.start);
            let hi = end.min(g.end);
            while a < hi {
                let i = (a - g.start) / 8;
                let base = g.start + i * 8;
                let take = ((base + 8).min(hi) - a) as usize;
                let word = (g.word)(i).to_le_bytes();
                let (o, w) = ((a - start) as usize, (a - base) as usize);
                out[o..o + take].copy_from_slice(&word[w..w + take]);
                a += take as u64;
            }
        }
    }

    /// The `N` bytes at `addr`.
    #[track_caller]
    fn read_array<const N: usize>(&self, addr: Addr) -> [u8; N] {
        let mut out: [u8; N] = self.bytes[self.range(addr, N)].try_into().expect("sized");
        if !self.regions.is_empty() {
            self.overlay(addr.raw(), &mut out);
        }
        out
    }

    /// Reads one byte.
    ///
    /// # Panics
    ///
    /// All accessors panic on out-of-bounds addresses: an OOB dataset access
    /// is a bug in the workload, not a recoverable condition. A write into
    /// a generated region panics too.
    #[track_caller]
    pub fn read_u8(&self, addr: Addr) -> u8 {
        u8::from_le_bytes(self.read_array(addr))
    }

    /// Reads a little-endian `u16`.
    #[track_caller]
    pub fn read_u16(&self, addr: Addr) -> u16 {
        u16::from_le_bytes(self.read_array(addr))
    }

    /// Reads a little-endian `u32`.
    #[track_caller]
    pub fn read_u32(&self, addr: Addr) -> u32 {
        u32::from_le_bytes(self.read_array(addr))
    }

    /// Reads a little-endian `u64`.
    #[track_caller]
    pub fn read_u64(&self, addr: Addr) -> u64 {
        u64::from_le_bytes(self.read_array(addr))
    }

    /// Writes one byte.
    #[track_caller]
    pub fn write_u8(&mut self, addr: Addr, v: u8) {
        let r = self.write_range(addr, 1);
        self.bytes[r][0] = v;
    }

    /// Writes a little-endian `u16`.
    #[track_caller]
    pub fn write_u16(&mut self, addr: Addr, v: u16) {
        let r = self.write_range(addr, 2);
        self.bytes[r].copy_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    #[track_caller]
    pub fn write_u32(&mut self, addr: Addr, v: u32) {
        let r = self.write_range(addr, 4);
        self.bytes[r].copy_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    #[track_caller]
    pub fn write_u64(&mut self, addr: Addr, v: u64) {
        let r = self.write_range(addr, 8);
        self.bytes[r].copy_from_slice(&v.to_le_bytes());
    }

    /// Copies bytes out of the store.
    #[track_caller]
    pub fn read_bytes(&self, addr: Addr, out: &mut [u8]) {
        let r = self.range(addr, out.len());
        out.copy_from_slice(&self.bytes[r]);
        if !self.regions.is_empty() {
            self.overlay(addr.raw(), out);
        }
    }

    /// Copies bytes into the store.
    #[track_caller]
    pub fn write_bytes(&mut self, addr: Addr, data: &[u8]) {
        let r = self.write_range(addr, data.len());
        self.bytes[r].copy_from_slice(data);
    }

    /// Reads the full 64-byte cache line containing `addr`.
    #[track_caller]
    pub fn read_line(&self, addr: Addr) -> [u8; LINE_BYTES as usize] {
        self.read_array(addr.line().base())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let mut m = ByteStore::new(256);
        m.write_u8(Addr::new(0), 0xab);
        m.write_u16(Addr::new(2), 0x1234);
        m.write_u32(Addr::new(4), 0xdeadbeef);
        m.write_u64(Addr::new(8), u64::MAX - 1);
        assert_eq!(m.read_u8(Addr::new(0)), 0xab);
        assert_eq!(m.read_u16(Addr::new(2)), 0x1234);
        assert_eq!(m.read_u32(Addr::new(4)), 0xdeadbeef);
        assert_eq!(m.read_u64(Addr::new(8)), u64::MAX - 1);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = ByteStore::new(64);
        m.write_u32(Addr::new(0), 0x0a0b0c0d);
        assert_eq!(m.read_u8(Addr::new(0)), 0x0d);
        assert_eq!(m.read_u8(Addr::new(3)), 0x0a);
    }

    #[test]
    fn byte_slices() {
        let mut m = ByteStore::new(128);
        m.write_bytes(Addr::new(10), b"hello");
        let mut buf = [0u8; 5];
        m.read_bytes(Addr::new(10), &mut buf);
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn whole_line_read() {
        let mut m = ByteStore::new(256);
        m.write_u64(Addr::new(64), 7);
        let line = m.read_line(Addr::new(100)); // same line as 64..128
        assert_eq!(u64::from_le_bytes(line[0..8].try_into().unwrap()), 7);
    }

    #[test]
    #[should_panic(expected = "out-of-bounds")]
    fn oob_read_panics() {
        let m = ByteStore::new(8);
        m.read_u64(Addr::new(1));
    }

    #[test]
    #[should_panic(expected = "out-of-bounds")]
    fn oob_write_panics() {
        let mut m = ByteStore::new(8);
        m.write_u32(Addr::new(6), 1);
    }

    /// A store whose flat bytes are all non-zero, with `[start, start +
    /// bytes)` generated, next to its materialized twin.
    fn generated_and_reference(start: u64, bytes: u64) -> (ByteStore, ByteStore) {
        let word = |i: u64| (i + 1).wrapping_mul(0x0123_4567_89ab_cdef);
        let mut flat = ByteStore::new(256);
        for a in 0..256 {
            flat.write_u8(Addr::new(a), 0xa0 ^ a as u8);
        }
        let mut generated = flat.clone();
        generated.generate(Addr::new(start), bytes, word);
        for i in 0..bytes / 8 {
            flat.write_u64(Addr::new(start + i * 8), word(i));
        }
        (generated, flat)
    }

    #[test]
    fn every_width_at_every_alignment_across_region_edges() {
        let (g, flat) = generated_and_reference(64, 64);
        for a in (48..144).map(Addr::new) {
            assert_eq!(g.read_u8(a), flat.read_u8(a), "u8 at {a}");
            assert_eq!(g.read_u16(a), flat.read_u16(a), "u16 at {a}");
            assert_eq!(g.read_u32(a), flat.read_u32(a), "u32 at {a}");
            assert_eq!(g.read_u64(a), flat.read_u64(a), "u64 at {a}");
            let (mut x, mut y) = ([0u8; 13], [0u8; 13]);
            g.read_bytes(a, &mut x);
            flat.read_bytes(a, &mut y);
            assert_eq!(x, y, "13 bytes at {a}");
        }
    }

    #[test]
    fn lines_straddling_region_edges() {
        // A region of seven words that starts and ends mid-line.
        let (g, flat) = generated_and_reference(40, 56);
        for a in (0..256).step_by(8).map(Addr::new) {
            assert_eq!(g.read_line(a), flat.read_line(a), "line at {a}");
        }
        let mut x = [0u8; 256];
        let mut y = [0u8; 256];
        g.read_bytes(Addr::ZERO, &mut x);
        flat.read_bytes(Addr::ZERO, &mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn writes_beside_a_region_are_allowed() {
        let (mut g, _) = generated_and_reference(64, 64);
        g.write_u64(Addr::new(56), 7);
        g.write_u64(Addr::new(128), 9);
        assert_eq!((g.read_u64(Addr::new(56)), g.read_u64(Addr::new(128))), (7, 9));
    }

    #[test]
    #[should_panic(expected = "write into a generated region: 0x7f+2 overlaps 0x40..0x80")]
    fn a_write_into_a_region_panics() {
        let (mut g, _) = generated_and_reference(64, 64);
        g.write_u16(Addr::new(127), 1);
    }

    #[test]
    #[should_panic(expected = "generated region 0x78+16 overlaps generated region 0x40..0x80")]
    fn an_overlapping_registration_panics() {
        let (mut g, _) = generated_and_reference(64, 64);
        g.generate(Addr::new(120), 16, |i| i);
    }

    #[test]
    #[should_panic(expected = "generated region 0x44+8 is not word-aligned")]
    fn an_unaligned_registration_panics() {
        ByteStore::new(256).generate(Addr::new(68), 8, |i| i);
    }

    #[test]
    #[should_panic(expected = "out-of-bounds")]
    fn a_region_past_the_end_panics() {
        ByteStore::new(256).generate(Addr::new(192), 128, |i| i);
    }
}
