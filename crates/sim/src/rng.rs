//! Seeded, splittable random streams.
//!
//! Every source of randomness in the workspace flows through [`SimRng`], so a
//! run is a pure function of its seed. Streams can be *split* by label, which
//! gives independent sub-streams whose draws do not depend on the order in
//! which unrelated components consume randomness — a common determinism bug
//! in simulators.
//!
//! The generator is an in-repo **xoshiro256++** (public domain, Blackman &
//! Vigna) seeded through a splitmix64 expansion. Keeping it in-tree — rather
//! than pulling in the `rand` crate — makes the workspace fully
//! self-contained and guarantees the stream is stable across platforms,
//! Rust versions, and dependency upgrades, which the record/replay
//! methodology and the fault-injection layer both rely on.

use crate::{fnv1a, splitmix64, splitmix64_mix, FNV_OFFSET, SPLITMIX64_GAMMA as GAMMA};

/// A deterministic random stream.
///
/// # Examples
///
/// ```
/// use kus_sim::rng::SimRng;
///
/// let mut a = SimRng::from_seed(42);
/// let mut b = SimRng::from_seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// // Split sub-streams are independent of sibling consumption order.
/// let mut root = SimRng::from_seed(7);
/// let mut g1 = root.split("graph");
/// let mut g2 = root.split("keys");
/// let _ = g2.next_u64();
/// let mut root2 = SimRng::from_seed(7);
/// assert_eq!(root2.split("graph").next_u64(), g1.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    state: [u64; 4],
}

impl SimRng {
    /// Creates a stream from a 64-bit seed.
    pub fn from_seed(seed: u64) -> SimRng {
        // Expand the seed into full xoshiro state through splitmix64 — the
        // canonical recommendation, and it guarantees a non-zero state.
        // Output `k` of the generator seeded with `seed` is splitmix64 of
        // its state after `k` steps.
        let state = [0u64, 1, 2, 3].map(|k| splitmix64(seed.wrapping_add(k.wrapping_mul(GAMMA))));
        SimRng { seed, state }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent sub-stream identified by `label`.
    ///
    /// The sub-stream's seed depends only on this stream's *seed* and the
    /// label — not on how many values have been drawn — so components can be
    /// wired up in any order without perturbing each other.
    pub fn split(&self, label: &str) -> SimRng {
        SimRng::from_seed(mix(self.seed, hash_label(label)))
    }

    /// A uniformly random `u64` (one xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniformly random value in `[0, bound)` (rejection-sampled, no
    /// modulo bias).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        // Largest multiple of `bound` that fits in a u64; reject above it.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// A uniformly random `f64` in `[0, 1)` (53 mantissa bits).
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// True with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        if p >= 1.0 {
            // unit_f64() < 1.0 always holds, but make the contract explicit
            // (and still consume one draw so the stream advances uniformly).
            let _ = self.next_u64();
            return true;
        }
        self.unit_f64() < p
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

fn hash_label(label: &str) -> u64 {
    fnv1a(FNV_OFFSET, label.as_bytes())
}

fn mix(a: u64, b: u64) -> u64 {
    // splitmix64 finalizer over the xor of the inputs.
    splitmix64_mix(a ^ b.rotate_left(32) ^ GAMMA)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::from_seed(1);
        let mut b = SimRng::from_seed(1);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::from_seed(1);
        let mut b = SimRng::from_seed(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn split_is_order_independent() {
        let root = SimRng::from_seed(99);
        let mut x1 = root.split("x");
        let mut y1 = root.split("y");
        let first_x = x1.next_u64();
        let first_y = y1.next_u64();

        let root2 = SimRng::from_seed(99);
        let mut y2 = root2.split("y");
        let mut x2 = root2.split("x");
        assert_eq!(first_y, y2.next_u64());
        assert_eq!(first_x, x2.next_u64());
    }

    #[test]
    fn split_differs_by_label() {
        let root = SimRng::from_seed(5);
        assert_ne!(root.split("a").next_u64(), root.split("b").next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::from_seed(3);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn below_covers_the_range() {
        let mut r = SimRng::from_seed(11);
        let mut seen = [false; 8];
        for _ in 0..512 {
            seen[r.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }

    #[test]
    fn unit_f64_is_in_unit_interval() {
        let mut r = SimRng::from_seed(6);
        for _ in 0..1000 {
            let u = r.unit_f64();
            assert!((0.0..1.0).contains(&u), "{u}");
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::from_seed(8);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>(), "astronomically unlikely identity");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::from_seed(4);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn chance_tracks_probability() {
        let mut r = SimRng::from_seed(21);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2200..2800).contains(&hits), "p=0.25 hit {hits}/10000");
    }
}
