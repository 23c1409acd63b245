//! Measurement primitives: counters, gauges with time-weighted averages,
//! the one span distribution ([`HdrHistogram`]) and its fixed-size
//! summary ([`Percentiles`]), and the nearest-rank p99 index that every
//! exact tail cut uses ([`p99_index`]).
//!
//! These are deliberately simple value types; components embed them directly
//! and experiments read them out after a run.

use std::fmt;

use crate::time::{Span, Time};

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use kus_sim::stats::Counter;
///
/// let mut c = Counter::default();
/// c.add(3);
/// c.incr();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Increments by one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Increments by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An occupancy gauge that tracks the time-weighted average and maximum of an
/// integer level (e.g., queue occupancy).
///
/// Call [`set`](Gauge::set) whenever the level changes; the gauge integrates
/// level × time between updates.
///
/// # Examples
///
/// ```
/// use kus_sim::stats::Gauge;
/// use kus_sim::time::{Span, Time};
///
/// let mut g = Gauge::new();
/// g.set(Time::ZERO, 2);
/// g.set(Time::ZERO + Span::from_ns(10), 4);
/// assert_eq!(g.max(), 4);
/// assert!((g.time_weighted_avg(Time::ZERO + Span::from_ns(20)) - 3.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauge {
    level: u64,
    max: u64,
    last_change: Time,
    weighted_ps: u128,
}

impl Gauge {
    /// Creates a gauge at level zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Records that the level changed to `level` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous update.
    pub fn set(&mut self, now: Time, level: u64) {
        assert!(now >= self.last_change, "gauge updated out of order");
        let dt = (now - self.last_change).as_ps();
        self.weighted_ps += self.level as u128 * dt as u128;
        self.last_change = now;
        self.level = level;
        self.max = self.max.max(level);
    }

    /// Adjusts the level by a signed delta at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if the level would underflow.
    pub fn adjust(&mut self, now: Time, delta: i64) {
        let next = if delta >= 0 {
            self.level + delta as u64
        } else {
            self.level.checked_sub((-delta) as u64).expect("gauge underflow")
        };
        self.set(now, next);
    }

    /// Current level.
    pub fn level(&self) -> u64 {
        self.level
    }

    /// Maximum level ever observed.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Time-weighted average level over `[0, now]`.
    pub fn time_weighted_avg(&self, now: Time) -> f64 {
        let total = now.as_ps();
        if total == 0 {
            return self.level as f64;
        }
        let tail = self.level as u128 * now.saturating_since(self.last_change).as_ps() as u128;
        (self.weighted_ps + tail) as f64 / total as f64
    }
}

/// An HDR-style log-linear histogram of [`Span`] samples, precise enough
/// for tail quantiles (p99/p999): the one span distribution, which reports
/// keep as its [`Percentiles`] summary.
///
/// Values are bucketed in picoseconds: 64 exact buckets below 64 ps, then
/// 64 linear sub-buckets per octave, so every reported quantile is an upper
/// bound within a relative error of 1/64 (~1.6%). Bucket bounds are fixed,
/// which makes merging shards a bucket-wise add: merge order can never
/// change a reported quantile. The bucket array grows only to the highest
/// bucket recorded or merged, so a histogram of nanosecond spans holds a
/// few hundred buckets, not all of them.
///
/// # Examples
///
/// ```
/// use kus_sim::stats::HdrHistogram;
/// use kus_sim::time::Span;
///
/// let mut h = HdrHistogram::new();
/// for us in 1..=1000u64 {
///     h.record(Span::from_us(us));
/// }
/// let p99 = h.quantile(0.99);
/// assert!(p99 >= Span::from_us(990) && p99 <= Span::from_us(1006));
/// ```
#[derive(Debug, Clone)]
pub struct HdrHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: Span,
    min: Span,
    max: Span,
}

/// Sub-bucket resolution: 2^6 linear buckets per octave.
const HDR_SUB_BITS: u32 = 6;

impl Default for HdrHistogram {
    fn default() -> Self {
        HdrHistogram::new()
    }
}

impl HdrHistogram {
    /// Creates an empty histogram.
    pub fn new() -> HdrHistogram {
        HdrHistogram {
            buckets: Vec::new(),
            count: 0,
            sum: Span::ZERO,
            min: Span::from_ps(u64::MAX),
            max: Span::ZERO,
        }
    }

    fn bucket_of(ps: u64) -> usize {
        if ps < 64 {
            ps as usize
        } else {
            let exp = 63 - ps.leading_zeros();
            let sub = ((ps >> (exp - HDR_SUB_BITS)) & 63) as usize;
            (((exp - HDR_SUB_BITS + 1) as usize) << 6) | sub
        }
    }

    /// The largest value a bucket contains — what quantiles report, so they
    /// are always upper bounds.
    fn bucket_upper(idx: usize) -> u64 {
        if idx < 64 {
            idx as u64
        } else {
            let tier = (idx >> 6) as u32;
            let sub = (idx & 63) as u64;
            let shift = tier - 1;
            ((64 + sub) << shift) + (1u64 << shift) - 1
        }
    }

    /// Records one sample.
    pub fn record(&mut self, span: Span) {
        let i = Self::bucket_of(span.as_ps());
        if i >= self.buckets.len() {
            self.buckets.resize(i + 1, 0);
        }
        self.buckets[i] += 1;
        self.count += 1;
        self.sum += span;
        self.min = self.min.min(span);
        self.max = self.max.max(span);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact arithmetic mean (zero if empty).
    pub fn mean(&self) -> Span {
        if self.count == 0 {
            Span::ZERO
        } else {
            self.sum / self.count
        }
    }

    /// Smallest sample (zero if empty).
    pub fn min(&self) -> Span {
        if self.count == 0 {
            Span::ZERO
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> Span {
        self.max
    }

    /// Merges another histogram into this one (bucket-wise, exact).
    pub fn merge(&mut self, other: &HdrHistogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// An upper bound for the `q`-quantile, within 1/64 relative error
    /// (exact below 64 ps), clamped to the exact maximum.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Span {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return Span::ZERO;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Span::from_ps(Self::bucket_upper(i)).min(self.max);
            }
        }
        self.max
    }
}

/// A fixed-size summary of one span distribution, taken from an
/// [`HdrHistogram`]: every quantile is an upper bound within 1/64 relative
/// error; count, mean, min and max are exact. Reports keep this, not the
/// histogram, so a held report costs a few words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percentiles {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: Span,
    /// Smallest observed sample (exact).
    pub min: Span,
    /// Median.
    pub p50: Span,
    /// 90th percentile.
    pub p90: Span,
    /// 99th percentile.
    pub p99: Span,
    /// 99.9th percentile — the paper's "killer microsecond" headline stat.
    pub p999: Span,
    /// Worst observed sample (exact).
    pub max: Span,
}

impl Percentiles {
    /// Summarizes `hist` at the standard report quantiles.
    pub fn from_histogram(hist: &HdrHistogram) -> Percentiles {
        Percentiles {
            count: hist.count(),
            mean: hist.mean(),
            min: hist.min(),
            p50: hist.quantile(0.50),
            p90: hist.quantile(0.90),
            p99: hist.quantile(0.99),
            p999: hist.quantile(0.999),
            max: hist.max(),
        }
    }
}

/// The nearest-rank index of the 99th percentile among `n` sorted samples:
/// the smallest index at or below which at least 99% of them lie. Every
/// exact-p99 tail cut (the serving report's tail blame and recovery
/// timeline, the causal blame tail, the profile's blame tail) uses it, so
/// their tails agree. `n` must be positive.
///
/// # Examples
///
/// ```
/// use kus_sim::stats::p99_index;
///
/// assert_eq!(p99_index(1), 0);
/// assert_eq!(p99_index(100), 98);
/// assert_eq!(p99_index(101), 99);
/// ```
#[inline]
pub fn p99_index(n: usize) -> usize {
    (n * 99).div_ceil(100) - 1
}

/// Throughput helper: events per second over a window of virtual time.
///
/// # Examples
///
/// ```
/// use kus_sim::stats::rate_per_sec;
/// use kus_sim::time::Span;
///
/// assert_eq!(rate_per_sec(1000, Span::from_us(1)), 1e9);
/// ```
pub fn rate_per_sec(events: u64, elapsed: Span) -> f64 {
    if elapsed.is_zero() {
        return 0.0;
    }
    events as f64 / (elapsed.as_ps() as f64 * 1e-12)
}

/// Bytes-per-second helper over virtual time.
pub fn bytes_per_sec(bytes: u64, elapsed: Span) -> f64 {
    rate_per_sec(bytes, elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::default();
        c.incr();
        c.add(10);
        assert_eq!(c.get(), 11);
        assert_eq!(c.to_string(), "11");
    }

    #[test]
    fn gauge_time_weighted_average() {
        let mut g = Gauge::new();
        let t = |ns| Time::ZERO + Span::from_ns(ns);
        g.set(t(0), 10);
        g.set(t(10), 0);
        // 10 for 10ns then 0 for 10ns => avg 5 at t=20.
        assert!((g.time_weighted_avg(t(20)) - 5.0).abs() < 1e-9);
        assert_eq!(g.max(), 10);
        assert_eq!(g.level(), 0);
    }

    #[test]
    fn gauge_adjust() {
        let mut g = Gauge::new();
        g.adjust(Time::ZERO, 3);
        g.adjust(Time::ZERO + Span::from_ns(1), -2);
        assert_eq!(g.level(), 1);
    }

    #[test]
    #[should_panic(expected = "gauge underflow")]
    fn gauge_underflow_panics() {
        let mut g = Gauge::new();
        g.adjust(Time::ZERO, -1);
    }

    #[test]
    fn hdr_bucket_upper_bounds_every_value() {
        // Round-tripping any value through its bucket must produce an upper
        // bound within 1/64 relative error — the histogram's accuracy claim.
        let mut probes: Vec<u64> = vec![0, 1, 63, 64, 65, 127, 128, 1000];
        for exp in 7..64u32 {
            let base = 1u64 << exp;
            probes.extend([base - 1, base, base + base / 3, base + base / 2]);
        }
        for &v in &probes {
            let upper = HdrHistogram::bucket_upper(HdrHistogram::bucket_of(v));
            assert!(upper >= v, "upper {upper} < value {v}");
            let err = (upper - v) as f64;
            assert!(
                err <= v as f64 / 64.0 + 1.0,
                "bucket error {err} too large for value {v}"
            );
        }
    }

    #[test]
    fn hdr_quantiles_match_exact_percentiles_within_error_bound() {
        // 100k distinct microsecond-scale samples spanning several octaves;
        // every quantile must bracket the exact order statistic from above
        // within the per-tier relative error bound.
        let n: u64 = 100_000;
        let mut h = HdrHistogram::new();
        for i in 1..=n {
            h.record(Span::from_ns(i * 997));
        }
        assert_eq!(h.count(), n);
        let exact = |q: f64| {
            let rank = (q * n as f64).ceil().max(1.0) as u64;
            Span::from_ns(rank * 997)
        };
        let mut last = Span::ZERO;
        for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
            let got = h.quantile(q);
            assert!(got >= last, "q={q}: {got} below the previous quantile {last}");
            last = got;
            let want = exact(q);
            assert!(got >= want, "q={q}: {got} < exact {want}");
            let rel = (got.as_ps() - want.as_ps()) as f64 / want.as_ps() as f64;
            // 1/64 bucket width plus slack for the off-by-one between the
            // bucketed rank and the exact order statistic.
            assert!(rel <= 0.04, "q={q}: relative error {rel}");
        }
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn hdr_merge_order_never_changes_percentiles() {
        // Four shards with very different sample populations, merged in
        // every order: all reported percentiles must be identical.
        let shard = |lo: u64, hi: u64, step: u64| {
            let mut h = HdrHistogram::new();
            let mut v = lo;
            while v < hi {
                h.record(Span::from_ns(v));
                v += step;
            }
            h
        };
        let shards =
            [shard(1, 1000, 1), shard(1000, 50_000, 7), shard(100, 200, 1), shard(1_000_000, 1_002_000, 13)];
        let orders: Vec<Vec<usize>> = vec![
            vec![0, 1, 2, 3],
            vec![3, 2, 1, 0],
            vec![2, 0, 3, 1],
            vec![1, 3, 0, 2],
        ];
        let percentiles = |h: &HdrHistogram| {
            [0.5, 0.9, 0.99, 0.999]
                .map(|q| h.quantile(q))
                .to_vec()
        };
        let mut reference: Option<(u64, Span, Vec<Span>)> = None;
        for order in orders {
            let mut merged = HdrHistogram::new();
            for i in order {
                merged.merge(&shards[i]);
            }
            // Associativity too: pre-merge pairs, then merge the pairs.
            let mut left = HdrHistogram::new();
            left.merge(&shards[0]);
            left.merge(&shards[1]);
            let mut right = HdrHistogram::new();
            right.merge(&shards[2]);
            right.merge(&shards[3]);
            let mut paired = HdrHistogram::new();
            paired.merge(&left);
            paired.merge(&right);
            let key = (merged.count(), merged.max(), percentiles(&merged));
            assert_eq!(percentiles(&paired), key.2);
            match &reference {
                None => reference = Some(key),
                Some(r) => assert_eq!(*r, key, "merge order changed a percentile"),
            }
        }
        // Bucket arrays of unequal length, merged both ways round; the
        // longest reaches the top bucket (2^63 ps and up).
        let mut top = HdrHistogram::new();
        top.record(Span::from_ps(1 << 63));
        assert_eq!(top.quantile(1.0), Span::from_ps(1 << 63));
        for (short, long) in [(&shards[2], &shards[3]), (&shards[0], &top), (&HdrHistogram::new(), &shards[1])] {
            let summary = |h: &HdrHistogram| (h.count(), h.min(), h.max(), percentiles(h));
            let mut grown = short.clone();
            grown.merge(long);
            let mut kept = long.clone();
            kept.merge(short);
            assert_eq!(summary(&grown), summary(&kept), "merge direction changed a percentile");
            assert_eq!(grown.count(), short.count() + long.count());
        }
    }

    #[test]
    fn hdr_empty_and_basic_stats() {
        let h = HdrHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), Span::ZERO);
        assert_eq!(h.mean(), Span::ZERO);
        assert_eq!(h.min(), Span::ZERO);
        let mut h = HdrHistogram::new();
        h.record(Span::from_ns(10));
        h.record(Span::from_ns(30));
        assert_eq!(h.mean(), Span::from_ns(20));
        assert_eq!(h.min(), Span::from_ns(10));
        assert_eq!(h.max(), Span::from_ns(30));
        assert_eq!(h.quantile(1.0), Span::from_ns(30));
        h.merge(&HdrHistogram::new());
        assert_eq!((h.count(), h.min()), (2, Span::from_ns(10)), "merging an empty one is inert");
        let p = Percentiles::from_histogram(&h);
        assert_eq!((p.count, p.min, p.mean, p.p99, p.max), (2, h.min(), h.mean(), h.max(), h.max()));
    }

    #[test]
    fn rates() {
        assert_eq!(rate_per_sec(0, Span::ZERO), 0.0);
        assert!((bytes_per_sec(4_000_000_000, Span::from_us(1_000_000)) - 4e9).abs() < 1.0);
    }
}
