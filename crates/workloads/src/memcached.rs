//! The Memcached benchmark: the lookup path of an in-memory key–value
//! cache.
//!
//! The hash table and the values are the core data structures on the
//! microsecond-latency device. A lookup hashes the key to a bucket, reads
//! the bucket line (key tags + value pointers), matches the tag in
//! software, and then retrieves the value — which "can span multiple cache
//! lines, resulting in independent memory accesses that can overlap with
//! each other": the paper's batch of four reads. Post-lookup processing is
//! the benign work loop.
//!
//! Every value's contents are a pure function of its key, so each retrieval
//! is verified word-by-word against recomputation, and the build registers
//! the value bodies as one generated dataset range instead of writing them.
//! The bucket table is probed into a local array and registered as a
//! second range that reads that array.

use kus_core::prelude::*;
use kus_load::KeyPopularity;
use kus_mem::layout::ArrayLayout;
use kus_mem::{Addr, LINE_BYTES};
use kus_sim::splitmix64;

/// Slots per bucket line: 4 pairs of (key tag, value address).
const SLOTS_PER_BUCKET: u64 = 4;

/// Configuration of the KV-lookup benchmark.
#[derive(Debug, Clone, Copy)]
pub struct MemcachedConfig {
    /// Items inserted during the build.
    pub n_items: u64,
    /// Value size in cache lines (4 = the paper's batched value retrieval).
    pub value_lines: u64,
    /// Lookups per fiber.
    pub lookups_per_fiber: u64,
    /// Work instructions after each lookup.
    pub work_count: u32,
    /// How request ids map onto looked-up keys in serving mode
    /// ([`KeyPopularity::Sequential`] = the historical `req % n_items`;
    /// ignored by the batch workload).
    pub popularity: KeyPopularity,
}

impl Default for MemcachedConfig {
    fn default() -> MemcachedConfig {
        MemcachedConfig {
            n_items: 50_000,
            value_lines: 4,
            lookups_per_fiber: 400,
            work_count: 100,
            popularity: KeyPopularity::Sequential,
        }
    }
}

/// The KV store's dataset layout.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KvLayout {
    buckets: ArrayLayout,
    bucket_count: u64,
}

/// The Memcached-style lookup workload.
#[derive(Debug)]
pub struct MemcachedWorkload {
    config: MemcachedConfig,
    layout: Option<KvLayout>,
    seed_hint: u64,
}

impl MemcachedWorkload {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration.
    pub fn new(config: MemcachedConfig) -> MemcachedWorkload {
        assert!(config.n_items > 0 && config.value_lines > 0 && config.lookups_per_fiber > 0);
        MemcachedWorkload { config, layout: None, seed_hint: 0 }
    }

    /// The configuration.
    pub fn config(&self) -> MemcachedConfig {
        self.config
    }

    pub(crate) fn item_key(seed_hint: u64, j: u64) -> u64 {
        // Tags must be non-zero (zero marks an empty slot).
        splitmix64(seed_hint ^ j.wrapping_mul(0x09e6_6765_93d2_c2c9)) | 1
    }

    pub(crate) fn value_word(key: u64, w: u64) -> u64 {
        splitmix64(key.wrapping_add(w.wrapping_mul(0xabcd_ef01_2345_6789)))
    }

    /// The built layout and key seed, for per-request callers
    /// (`service::MemcachedService`).
    pub(crate) fn lookup_kernel(&self) -> (KvLayout, u64) {
        (self.layout.expect("build before lookup"), self.seed_hint)
    }
}

/// One complete lookup of `key`: bucket walk with software tag matching,
/// then the paper's batched independent value reads, verified word-by-word.
/// Returns the XOR checksum of the value words. This is the per-request
/// kernel shared by the batch workload fibers and the serving adapter.
pub(crate) async fn kv_lookup(kv: KvLayout, key: u64, value_lines: u64, ctx: &MemCtx) -> u64 {
    // Bucket walk: read the bucket line, match the tag in software, follow
    // linear probing on (rare) collisions.
    let mut b = key % kv.bucket_count;
    let mut value_addr = None;
    'search: for _probe in 0..8 {
        let line = kv.buckets.addr_of(b);
        // One timed read fetches the line; the remaining slot words are L1
        // hits.
        let first = ctx.dev_read_u64(line).await;
        let mut slot_words = vec![first];
        for slot in 1..SLOTS_PER_BUCKET * 2 {
            slot_words.push(ctx.l1_read_u64(line + slot * 8));
        }
        for slot in 0..SLOTS_PER_BUCKET as usize {
            if slot_words[slot * 2] == key {
                value_addr = Some(Addr::new(slot_words[slot * 2 + 1]));
                break 'search;
            }
            if slot_words[slot * 2] == 0 {
                break 'search; // empty slot: key absent
            }
        }
        b = (b + 1) % kv.bucket_count;
    }
    let value_addr = value_addr.expect("inserted key must be found");
    // Value retrieval: the batched independent reads.
    let addrs: Vec<Addr> = (0..value_lines).map(|l| value_addr + l * LINE_BYTES).collect();
    let words = ctx.dev_read_batch(&addrs).await;
    let mut sum = 0u64;
    for (l, w) in words.iter().enumerate() {
        let expect = MemcachedWorkload::value_word(key, l as u64 * (LINE_BYTES / 8));
        assert_eq!(*w, expect, "corrupt value for key {key:#x} line {l}");
        sum ^= *w;
    }
    sum
}

impl Workload for MemcachedWorkload {
    fn name(&self) -> &'static str {
        "memcached"
    }

    fn build(&mut self, data: &mut Dataset) {
        let cfg = self.config;
        // 2x slot headroom keeps insertion failures negligible; linear
        // probing over buckets handles collisions.
        let bucket_count =
            (cfg.n_items * 2 / SLOTS_PER_BUCKET).next_power_of_two();
        let seed_hint = data.rng("memcached-keys").next_u64();
        self.seed_hint = seed_hint;
        let buckets_addr = data
            .alloc_lines(bucket_count)
            .expect("dataset too small for the hash table");
        let buckets = ArrayLayout::new(buckets_addr, LINE_BYTES, bucket_count);
        // Value bodies: item `j` owns the `value_lines` lines after item
        // `j - 1`'s, and every word is a pure function of its key, so the
        // values are one generated range that no build writes.
        let value_lines =
            cfg.n_items.checked_mul(cfg.value_lines).expect("dataset too small for values");
        let values = data.alloc_lines(value_lines).expect("dataset too small for values");
        let item_words = cfg.value_lines * (LINE_BYTES / 8);
        data.generate(values, value_lines * LINE_BYTES, move |i| {
            Self::value_word(Self::item_key(seed_hint, i / item_words), i % item_words)
        });
        // The bucket table is built in a local array, word `i` at
        // `buckets_addr + 8 * i`, then registered as a read-only region:
        // no lookup writes it, and probing a `Vec` costs no store access.
        let line_words = LINE_BYTES / 8;
        let mut table = vec![0u64; (bucket_count * line_words) as usize];
        for j in 0..cfg.n_items {
            let key = Self::item_key(seed_hint, j);
            let value_addr = values + j * cfg.value_lines * LINE_BYTES;
            // Insert: linear probing over bucket lines.
            let mut b = key % bucket_count;
            'insert: for _probe in 0..bucket_count {
                for slot in 0..SLOTS_PER_BUCKET {
                    let tag = (b * line_words + slot * 2) as usize;
                    if table[tag] == 0 {
                        table[tag] = key;
                        table[tag + 1] = value_addr.raw();
                        break 'insert;
                    }
                }
                b = (b + 1) % bucket_count;
            }
        }
        data.generate(buckets_addr, bucket_count * LINE_BYTES, move |i| table[i as usize]);
        self.layout = Some(KvLayout { buckets, bucket_count });
    }

    fn spawn(&self, core: usize, fiber: usize, fibers_total: usize, ctx: MemCtx) -> FiberFuture {
        let cfg = self.config;
        let kv = self.layout.expect("build before spawn");
        let seed_hint = self.seed_hint;
        let stripe = (core * fibers_total + fiber) as u64;
        Box::pin(async move {
            let mut found = 0u64;
            for q in 0..cfg.lookups_per_fiber {
                let nonce = stripe * cfg.lookups_per_fiber + q;
                let key = MemcachedWorkload::item_key(seed_hint, nonce % cfg.n_items);
                let _sum = kv_lookup(kv, key, cfg.value_lines, &ctx).await;
                found += 1;
                ctx.work(cfg.work_count);
            }
            assert_eq!(found, cfg.lookups_per_fiber);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kus_core::{Platform, PlatformConfig};

    fn small() -> MemcachedWorkload {
        MemcachedWorkload::new(MemcachedConfig {
            n_items: 2_000,
            value_lines: 4,
            lookups_per_fiber: 100,
            work_count: 100,
            ..MemcachedConfig::default()
        })
    }

    #[test]
    fn lookups_verify_values_end_to_end() {
        let p = Platform::try_new(
            PlatformConfig::paper_default().without_replay_device().fibers_per_core(4),
        )
        .expect("valid config");
        let mut w = small();
        let r = p.run(&mut w);
        // Each lookup: >=1 bucket read + 4 value reads.
        assert!(r.accesses >= 4 * 100 * 5, "accesses {}", r.accesses);
    }

    #[test]
    fn baseline_runs() {
        let p = Platform::try_new(PlatformConfig::paper_default().without_replay_device())
            .expect("valid config");
        let mut w = small();
        let r = p.run_baseline(&mut w);
        assert!(r.accesses >= 500);
    }

    /// The build as it was before the value bodies were generated: each
    /// item allocates and writes its own value lines, then inserts itself.
    /// The reference the generated build must match byte for byte.
    fn materialized_build(cfg: MemcachedConfig, seed: u64) -> Dataset {
        let mut data = Dataset::new(1 << 20, seed);
        let bucket_count = (cfg.n_items * 2 / SLOTS_PER_BUCKET).next_power_of_two();
        let seed_hint = data.rng("memcached-keys").next_u64();
        let buckets_addr = data.alloc_lines(bucket_count).unwrap();
        let buckets = ArrayLayout::new(buckets_addr, LINE_BYTES, bucket_count);
        let store = data.store();
        for j in 0..cfg.n_items {
            let key = MemcachedWorkload::item_key(seed_hint, j);
            let value_addr = data.alloc_lines(cfg.value_lines).unwrap();
            let mut s = store.borrow_mut();
            for w in 0..cfg.value_lines * (LINE_BYTES / 8) {
                s.write_u64(value_addr + w * 8, MemcachedWorkload::value_word(key, w));
            }
            let mut b = key % bucket_count;
            'insert: for _probe in 0..bucket_count {
                let line = buckets.addr_of(b);
                for slot in 0..SLOTS_PER_BUCKET {
                    let tag_addr = line + slot * 16;
                    if s.read_u64(tag_addr) == 0 {
                        s.write_u64(tag_addr, key);
                        s.write_u64(tag_addr + 8, value_addr.raw());
                        break 'insert;
                    }
                }
                b = (b + 1) % bucket_count;
            }
        }
        data
    }

    /// Every byte up to the allocation cursor.
    fn allocated_bytes(data: &mut Dataset) -> Vec<u8> {
        let mut out = vec![0; data.alloc().cursor().raw() as usize];
        data.store().borrow().read_bytes(Addr::ZERO, &mut out);
        out
    }

    #[test]
    fn generated_values_match_the_materialized_build() {
        for seed in [1, 2] {
            for value_lines in [1, 4] {
                let cfg = MemcachedConfig { n_items: 301, value_lines, ..MemcachedConfig::default() };
                let mut generated = Dataset::new(1 << 20, seed);
                MemcachedWorkload::new(cfg).build(&mut generated);
                let mut reference = materialized_build(cfg, seed);
                let (got, want) = (allocated_bytes(&mut generated), allocated_bytes(&mut reference));
                assert_eq!(got.len(), want.len(), "seed {seed}, {value_lines} value lines");
                assert!(got == want, "seed {seed}, {value_lines} value lines: contents differ");
            }
        }
    }

    #[test]
    fn an_overflowing_value_extent_is_too_small_a_dataset() {
        // The line count, its bytes, and the allocation's end address each
        // overflow a u64 in turn.
        for (n_items, value_lines) in [(2, 1 << 63), (4, 1 << 58), (1, u64::MAX / LINE_BYTES)] {
            let cfg = MemcachedConfig { n_items, value_lines, ..MemcachedConfig::default() };
            let panic = std::panic::catch_unwind(|| {
                MemcachedWorkload::new(cfg).build(&mut Dataset::new(1 << 20, 1))
            })
            .expect_err("an overflowing build must fail");
            let msg = panic.downcast_ref::<String>().map(String::as_str);
            assert!(
                msg.is_some_and(|m| m.starts_with("dataset too small for values")),
                "{n_items} x {value_lines}: {msg:?}"
            );
        }
    }
}
