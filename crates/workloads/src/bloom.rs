//! The Bloom filter benchmark: "a high-performance implementation of
//! lookups in a pre-populated dataset".
//!
//! The filter's bit array is the core data structure placed on the
//! microsecond-latency device; each lookup probes `k = 4` independent bit
//! words — the paper's batch of four reads for this application — and the
//! following work-loop instructions stand in for the application's
//! post-lookup processing, exactly as the paper substitutes the "benign
//! work loop" for non-core code.
//!
//! Correctness is checked from the dataset itself: present keys can never
//! test negative, and the measured false-positive rate must stay near the
//! analytic optimum for the configured bits-per-key.

use kus_core::prelude::*;
use kus_load::KeyPopularity;
use kus_mem::layout::BitArray;
use kus_mem::Addr;
use kus_sim::splitmix64;

/// Double hashing: probe `i` of `key` indexes bit `h1 + i*h2 (mod m)`.
fn hash2(key: u64) -> (u64, u64) {
    (splitmix64(key), splitmix64(key ^ 0x9e37_79b9_7f4a_7c15) | 1)
}

/// Bit index of probe `i` for `key` in a filter of `m` bits.
pub fn probe_bit(key: u64, i: u64, m: u64) -> u64 {
    let (h1, h2) = hash2(key);
    (h1.wrapping_add(i.wrapping_mul(h2))) % m
}

/// Configuration of the Bloom-filter benchmark.
#[derive(Debug, Clone, Copy)]
pub struct BloomConfig {
    /// Keys inserted during the build.
    pub n_keys: u64,
    /// Filter bits per inserted key (10 gives ≈1 % false positives at k=4).
    pub bits_per_key: u64,
    /// Hash probes per lookup (the paper's batch of four).
    pub k: u64,
    /// Lookups per fiber.
    pub lookups_per_fiber: u64,
    /// Work instructions after each lookup.
    pub work_count: u32,
    /// How request ids map onto probed present keys in serving mode
    /// ([`KeyPopularity::Sequential`] = the historical `req % n_keys`;
    /// ignored by the batch workload).
    pub popularity: KeyPopularity,
}

impl Default for BloomConfig {
    fn default() -> BloomConfig {
        BloomConfig {
            n_keys: 100_000,
            bits_per_key: 10,
            k: 4,
            lookups_per_fiber: 500,
            work_count: 100,
            popularity: KeyPopularity::Sequential,
        }
    }
}

/// The Bloom filter lookup workload.
#[derive(Debug)]
pub struct BloomWorkload {
    config: BloomConfig,
    bits: Option<BitArray>,
    m: u64,
    seed_hint: u64,
}

impl BloomWorkload {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration.
    pub fn new(config: BloomConfig) -> BloomWorkload {
        assert!(config.n_keys > 0 && config.k > 0 && config.lookups_per_fiber > 0);
        BloomWorkload { config, bits: None, m: 0, seed_hint: 0 }
    }

    /// The configuration.
    pub fn config(&self) -> BloomConfig {
        self.config
    }

    /// The key inserted as item `j` (keys are a pure function of the build
    /// seed, so lookups can re-derive "present" keys without a side table).
    pub(crate) fn present_key(seed_hint: u64, j: u64) -> u64 {
        splitmix64(seed_hint ^ (j.wrapping_mul(0x2545_f491_4f6c_dd1d)))
    }

    /// A key that is (almost surely) absent from the filter, derived from a
    /// request nonce.
    pub(crate) fn absent_key(nonce: u64) -> u64 {
        splitmix64(!nonce ^ 0xdead_beef_cafe_f00d)
    }

    /// The built filter and key seed, for per-request callers
    /// (`service::BloomService`).
    pub(crate) fn filter_kernel(&self) -> (BitArray, u64, u64) {
        (self.bits.expect("build before probe"), self.m, self.seed_hint)
    }
}

/// One complete membership probe of `key`: the paper's batch of `k`
/// independent bit-word reads, tested against the probe masks in software.
/// This is the per-request kernel shared by the batch workload fibers and
/// the serving adapter.
pub(crate) async fn bloom_probe(bits: BitArray, m: u64, k: u64, key: u64, ctx: &MemCtx) -> bool {
    let mut addrs = vec![Addr::ZERO; k as usize];
    for (i, a) in addrs.iter_mut().enumerate() {
        *a = bits.word_addr(probe_bit(key, i as u64, m));
    }
    let words = ctx.dev_read_batch(&addrs).await;
    words
        .iter()
        .enumerate()
        .all(|(i, &w)| w & BitArray::mask(probe_bit(key, i as u64, m)) != 0)
}

impl Workload for BloomWorkload {
    fn name(&self) -> &'static str {
        "bloom"
    }

    fn build(&mut self, data: &mut Dataset) {
        let m = (self.config.n_keys * self.config.bits_per_key).next_power_of_two();
        self.m = m;
        self.seed_hint = data.rng("bloom-keys").next_u64();
        let bits = BitArray::alloc(data.alloc(), m).expect("dataset too small for bloom filter");
        let store = data.store();
        let mut store = store.borrow_mut();
        for j in 0..self.config.n_keys {
            let key = Self::present_key(self.seed_hint, j);
            for i in 0..self.config.k {
                bits.set(&mut store, probe_bit(key, i, m));
            }
        }
        self.bits = Some(bits);
    }

    fn spawn(&self, core: usize, fiber: usize, fibers_total: usize, ctx: MemCtx) -> FiberFuture {
        let cfg = self.config;
        let bits = self.bits.expect("build before spawn");
        let m = self.m;
        let seed_hint = self.seed_hint;
        let stripe = (core * fibers_total + fiber) as u64;
        Box::pin(async move {
            // Deterministic per-fiber lookup stream: alternate a key known to
            // be present with a key that is (almost surely) absent.
            let mut positives = 0u64;
            let mut negatives = 0u64;
            for q in 0..cfg.lookups_per_fiber {
                let nonce = stripe * cfg.lookups_per_fiber + q;
                let (key, expect_present) = if q % 2 == 0 {
                    (BloomWorkload::present_key(seed_hint, nonce % cfg.n_keys), true)
                } else {
                    (BloomWorkload::absent_key(nonce), false)
                };
                let hit = bloom_probe(bits, m, cfg.k, key, &ctx).await;
                if hit {
                    positives += 1;
                } else {
                    negatives += 1;
                }
                assert!(
                    !expect_present || hit,
                    "false negative for inserted key {key:#x}"
                );
                ctx.work(cfg.work_count);
            }
            // About half the stream is present keys; absent keys mostly miss.
            assert!(positives >= cfg.lookups_per_fiber / 2);
            assert!(
                negatives >= cfg.lookups_per_fiber / 3,
                "false-positive rate implausibly high: {negatives} negatives"
            );
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kus_core::{Platform, PlatformConfig};

    fn small() -> BloomWorkload {
        BloomWorkload::new(BloomConfig {
            n_keys: 5_000,
            bits_per_key: 10,
            k: 4,
            lookups_per_fiber: 200,
            work_count: 100,
            ..BloomConfig::default()
        })
    }

    #[test]
    fn probe_bits_are_in_range_and_spread() {
        let m = 1 << 20;
        let mut seen = std::collections::HashSet::new();
        for key in 0..100u64 {
            for i in 0..4 {
                let b = probe_bit(key, i, m);
                assert!(b < m);
                seen.insert(b);
            }
        }
        assert!(seen.len() > 390, "probes should rarely collide: {}", seen.len());
    }

    #[test]
    fn runs_on_prefetch_and_verifies() {
        let p = Platform::try_new(
            PlatformConfig::paper_default().without_replay_device().fibers_per_core(4),
        )
        .expect("valid config");
        let mut w = small();
        let r = p.run(&mut w);
        assert_eq!(r.accesses, 4 * 200 * 4, "k probes per lookup");
    }

    #[test]
    fn baseline_runs_and_is_faster_per_access_than_device() {
        let p = Platform::try_new(PlatformConfig::paper_default().without_replay_device())
            .expect("valid config");
        let mut w = small();
        let dev = p.run(&mut w);
        let base = p.run_baseline(&mut w);
        assert!(dev.elapsed > base.elapsed);
    }
}
