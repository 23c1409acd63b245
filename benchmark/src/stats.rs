//! Order statistics, the FNV-1a digest, pass seeds and peak-RSS parsing.

/// The median: the middle value, or the mean of the two middle values.
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// How a metric's samples reduce to its reported value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduce {
    /// The smallest sample (the fastest pass).
    Min,
    /// The largest sample (the best rate).
    Max,
    /// The median sample.
    Median,
}

impl Reduce {
    /// The name results files and printed lines use.
    pub fn name(self) -> &'static str {
        match self {
            Reduce::Min => "min",
            Reduce::Max => "max",
            Reduce::Median => "median",
        }
    }

    /// The reduction called `name`.
    pub fn from_name(name: &str) -> Option<Reduce> {
        [Reduce::Min, Reduce::Max, Reduce::Median]
            .into_iter()
            .find(|r| r.name() == name)
    }

    /// The reduction applied to `values`.
    pub fn apply(self, values: &[f64]) -> f64 {
        match self {
            Reduce::Min => sorted(values).first().copied().unwrap_or(f64::NAN),
            Reduce::Max => sorted(values).last().copied().unwrap_or(f64::NAN),
            Reduce::Median => median(values),
        }
    }

    /// The quartiles of the reported value: those of the reduction applied
    /// to a resample, with replacement, of `values`, computed exactly
    /// rather than by drawing resamples. Each reduction is an order
    /// statistic of the resample (the mean of the middle two for a median
    /// of an even count, whose quartiles are approximated by the mean of
    /// theirs). With a handful of samples or more, the minimum's quartiles
    /// are the smallest sample and the second smallest, and a median of
    /// five has the second and fourth smallest.
    pub fn quartiles(self, values: &[f64]) -> (f64, f64, f64) {
        let v = sorted(values);
        let n = v.len();
        if n == 0 {
            return (f64::NAN, f64::NAN, f64::NAN);
        }
        let ranks = match self {
            Reduce::Min => vec![1],
            Reduce::Max => vec![n],
            Reduce::Median if n % 2 == 1 => vec![n.div_ceil(2)],
            Reduce::Median => vec![n / 2, n / 2 + 1],
        };
        let q = |p| {
            let sum: f64 = ranks.iter().map(|&r| resampled_quantile(&v, r, p)).sum();
            sum / ranks.len() as f64
        };
        (q(0.25), q(0.5), q(0.75))
    }
}

/// The `p`-quantile of the `r`-th smallest of `n` draws with replacement
/// from the `n` sorted values `v`: the smallest `v[k - 1]` such that, with
/// probability at least `p`, `r` or more draws land among the `k`
/// smallest.
fn resampled_quantile(v: &[f64], r: usize, p: f64) -> f64 {
    let n = v.len();
    let k = (1..n)
        .find(|&k| binomial_tail(n, k as f64 / n as f64, r) >= p)
        .unwrap_or(n);
    v[k - 1]
}

/// `P(X >= r)` for `X ~ Binomial(n, q)`, `0 < q < 1`, summed in log space
/// so that no term underflows on the way.
fn binomial_tail(n: usize, q: f64, r: usize) -> f64 {
    let mut ln_choose = 0.0;
    let mut tail = 0.0;
    for j in 0..=n {
        if j >= r {
            tail += (ln_choose + j as f64 * q.ln() + (n - j) as f64 * (1.0 - q).ln()).exp();
        }
        ln_choose += ((n - j) as f64).ln() - ((j + 1) as f64).ln();
    }
    tail
}

/// The nearest-rank `p`-th percentile (`p` in `(0, 100]`): the smallest
/// value with at least `p`% of the values at or below it. `0.0` for an
/// empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `a / b`, or `0.0` when `b` is zero, so derived ratios of layers a
/// workload does not exercise read as zero instead of `NaN`.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Incremental FNV-1a-64, the hash the simulator's own fingerprints use.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds `s` plus a separator byte, so adjacent strings cannot alias.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The seed of pass `index` (warm-up, traced or timed) under `--seed
/// seed`: a splitmix64 mix, so no two passes of a run share a seed and a
/// cache carried across passes cannot flatter the timings.
pub fn pass_seed(seed: u64, index: u64) -> u64 {
    splitmix(seed ^ splitmix(index.wrapping_add(0x5EED)))
}

/// The `j`-th sub-seed of `seed`, for workloads that need several seeds
/// in one pass.
pub fn sub_seed(seed: u64, j: u64) -> u64 {
    splitmix(seed.wrapping_add(j.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `VmHWM` (the process's peak resident set) in KiB, parsed from the text
/// of `/proc/self/status`.
pub fn vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kib)
}

/// This process's peak resident set in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = vm_hwm_kib(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn binomial_tails() {
        // P(Bin(4, 1/2) >= 2) = 11/16; P(Bin(5, 0.4) >= 3) = 0.31744.
        assert!((binomial_tail(4, 0.5, 2) - 11.0 / 16.0).abs() < 1e-12);
        assert!((binomial_tail(5, 0.4, 3) - 0.31744).abs() < 1e-12);
        assert!((binomial_tail(7, 0.3, 0) - 1.0).abs() < 1e-12);
        // No underflow where (1 - q)^n alone would.
        assert!((binomial_tail(400, 399.0 / 400.0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quartiles_of_resampled_reductions() {
        // Resampling [1, 2, 3, 5] gives a minimum of 1 with probability
        // 1 - (3/4)^4 = 0.68, at most 2 with probability 1 - (2/4)^4 = 0.94.
        let v = [3.0, 1.0, 2.0, 5.0];
        assert_eq!(Reduce::Min.apply(&v), 1.0);
        assert_eq!(Reduce::Min.quartiles(&v), (1.0, 1.0, 2.0));
        assert_eq!(Reduce::Max.apply(&v), 5.0);
        assert_eq!(Reduce::Max.quartiles(&v), (3.0, 5.0, 5.0));
        // The third smallest of five draws from [1, 2, 4, 8, 16] is at
        // most 2 with probability 0.317, at most 4 with 0.683 and at most
        // 8 with 0.942: one outlying sample does not widen the median's.
        let five = [16.0, 2.0, 8.0, 1.0, 4.0];
        assert_eq!(Reduce::Median.apply(&five), 4.0);
        assert_eq!(Reduce::Median.quartiles(&five), (2.0, 4.0, 8.0));
        // An even count averages the two middle order statistics: the
        // mean of two draws from [1, 2] is 1, 1.5 or 2 with probabilities
        // 1/4, 1/2 and 1/4.
        assert_eq!(Reduce::Median.quartiles(&[1.0, 2.0]), (1.0, 1.5, 1.5));
        assert_eq!(Reduce::Min.quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert!(Reduce::Max.quartiles(&[]).0.is_nan());
        for r in [Reduce::Min, Reduce::Max, Reduce::Median] {
            assert_eq!(Reduce::from_name(r.name()), Some(r));
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 10.0);
        assert_eq!(percentile(&v, 95.0), 19.0);
        assert_eq!(percentile(&v, 100.0), 20.0);
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 50.0), 5.0);
        assert_eq!(percentile(&[2.5], 95.0), 2.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn vm_hwm_from_a_status_sample() {
        let status = "Name:\tkusbench\nUmask:\t0022\nState:\tR (running)\n\
                      VmPeak:\t  412344 kB\nVmSize:\t  409876 kB\nVmLck:\t       0 kB\n\
                      VmHWM:\t  377296 kB\nVmRSS:\t  377120 kB\nThreads:\t1\n";
        assert_eq!(vm_hwm_kib(status), Some(377_296));
        assert_eq!(vm_hwm_kib("Name:\tx\nVmRSS:\t 10 kB\n"), None);
        assert_eq!(vm_hwm_kib("VmHWM:\t 10 MB\n"), None);
        assert!(peak_rss_mib().expect("Linux exposes VmHWM") > 0.0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let h = |s: &str| {
            let mut f = Fnv::default();
            f.write(s.as_bytes());
            f.finish()
        };
        assert_eq!(h(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(h("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(h("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn pass_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..64).map(|i| pass_seed(1, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        assert_eq!(pass_seed(1, 3), pass_seed(1, 3));
        assert_ne!(pass_seed(1, 3), pass_seed(2, 3));
    }
}
