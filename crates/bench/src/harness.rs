//! Minimal wall-clock benchmark harness.
//!
//! The workspace is dependency-free, so the `cargo bench` targets use this
//! harness instead of Criterion: warm up, take `samples` timed runs, report
//! the median (robust to scheduler noise) alongside min and max. Output is
//! one line per benchmark, stable enough to diff across commits.
//!
//! [`bench_stats`] returns the measurements as a [`BenchStats`] value so
//! callers can compute derived quantities (the sweep-speedup bench divides
//! two medians); [`bench()`] keeps the original print-only behaviour.

use std::fmt;
use std::time::Instant;

/// The result of one benchmark: the sorted sample statistics, in
/// nanoseconds.
#[derive(Debug, Clone)]
pub struct BenchStats {
    /// Benchmark name as printed.
    pub name: String,
    /// Median wall-clock time per iteration.
    pub median_ns: u128,
    /// Fastest sample.
    pub min_ns: u128,
    /// Slowest sample.
    pub max_ns: u128,
    /// Number of timed samples.
    pub samples: u32,
}

impl BenchStats {
    /// Median in seconds.
    pub fn median_secs(&self) -> f64 {
        self.median_ns as f64 / 1e9
    }

    /// How many times faster this run is than `other` (>1 means faster).
    pub fn speedup_over(&self, other: &BenchStats) -> f64 {
        other.median_ns as f64 / self.median_ns.max(1) as f64
    }
}

impl fmt::Display for BenchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} ns/iter (min {} .. max {}, n={})",
            self.name, self.median_ns, self.min_ns, self.max_ns, self.samples
        )
    }
}

/// Times `f` over `samples` runs (after one untimed warm-up) and returns
/// the statistics without printing.
///
/// `f` should return something cheap derived from the work (an event count,
/// a length) so the optimizer cannot delete the benchmark body; the value is
/// consumed with a volatile-ish black-box pattern below.
pub fn bench_stats<T>(name: &str, samples: u32, mut f: impl FnMut() -> T) -> BenchStats {
    assert!(samples > 0);
    // One untimed warm-up run fills caches and lazy-allocated arenas.
    consume(f());
    let mut times: Vec<u128> = Vec::with_capacity(samples as usize);
    for _ in 0..samples {
        let start = Instant::now();
        consume(f());
        times.push(start.elapsed().as_nanos());
    }
    times.sort_unstable();
    BenchStats {
        name: name.to_string(),
        median_ns: times[times.len() / 2],
        min_ns: times[0],
        max_ns: times[times.len() - 1],
        samples,
    }
}

/// Times `f` and prints `name: median ns/iter (min .. max)`.
pub fn bench<T>(name: &str, samples: u32, f: impl FnMut() -> T) {
    println!("{}", bench_stats(name, samples, f));
}

/// Defeats dead-code elimination of a benchmark's result without `unsafe`.
fn consume<T>(value: T) {
    // Moving the value into a drop at a non-inlined boundary is enough for
    // the benchmarks here, which all do externally visible allocation work.
    #[inline(never)]
    fn sink<T>(v: T) {
        drop(v);
    }
    sink(value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_ordered() {
        let s = bench_stats("noop", 5, || 1u32);
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.max_ns);
        assert_eq!(s.samples, 5);
        assert!(s.to_string().starts_with("noop: "));
    }

    #[test]
    fn speedup_is_a_ratio() {
        let fast = BenchStats { name: "f".into(), median_ns: 10, min_ns: 10, max_ns: 10, samples: 1 };
        let slow = BenchStats { name: "s".into(), median_ns: 40, min_ns: 40, max_ns: 40, samples: 1 };
        assert_eq!(fast.speedup_over(&slow), 4.0);
    }
}
