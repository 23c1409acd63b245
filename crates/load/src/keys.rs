//! Seeded key-popularity distributions.
//!
//! A [`KeyPopularity`] maps a request id onto a key index in `[0, n)` as a
//! *pure stateless function* — no RNG stream is consumed, so the mapping
//! is identical in the record and replay phases, independent of dispatch
//! order, and bit-reproducible across runs. [`KeyPopularity::Sequential`]
//! reproduces the historical `req % n` mapping exactly, so every existing
//! artifact is unchanged unless a skewed distribution is asked for.

use kus_sim::splitmix64;

/// How request ids map onto the service's key space.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum KeyPopularity {
    /// `req % n` — the historical round-robin mapping (uniform coverage,
    /// zero skew). The default; bitwise inert.
    #[default]
    Sequential,
    /// Power-law (Zipf-like) skew via the continuous inverse-CDF
    /// approximation: request `req` hashes to a unit sample `u` and lands
    /// on key `⌊n · u^(1/(1-theta))⌋`, concentrating traffic on low key
    /// indices. `theta` in `(0, 1)`: 0.6 is mild skew, 0.99 is the
    /// classic hot-object workload.
    Zipfian {
        /// Skew exponent in `(0, 1)`; larger is hotter.
        theta: f64,
    },
    /// An explicit hot set: a `hot_fraction` slice of the key space
    /// receives `hot_weight` of the traffic; the remainder spreads
    /// uniformly over the cold keys.
    HotSet {
        /// Fraction of the key space that is hot, in `(0, 1]`.
        hot_fraction: f64,
        /// Fraction of requests that hit the hot set, in `[0, 1]`.
        hot_weight: f64,
    },
}

/// A unit sample in `[0, 1)` from the top 53 bits of splitmix64 — the
/// same stateless mixer the device uses for jitter sampling; `salt` keeps
/// independent uses of the same `req` decorrelated.
fn unit(req: u64, salt: u64) -> f64 {
    (splitmix64(req.wrapping_add(salt)) >> 11) as f64 / (1u64 << 53) as f64
}

impl KeyPopularity {
    /// Short name for labels and TOML.
    pub fn label(&self) -> &'static str {
        match self {
            KeyPopularity::Sequential => "sequential",
            KeyPopularity::Zipfian { .. } => "zipfian",
            KeyPopularity::HotSet { .. } => "hotset",
        }
    }

    /// Checks the distribution parameters, naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            KeyPopularity::Sequential => Ok(()),
            KeyPopularity::Zipfian { theta } => {
                if !(0.0..1.0).contains(&theta) || theta == 0.0 {
                    return Err(format!("theta = {theta} is outside (0, 1)"));
                }
                Ok(())
            }
            KeyPopularity::HotSet { hot_fraction, hot_weight } => {
                if !(0.0..=1.0).contains(&hot_fraction) || hot_fraction == 0.0 {
                    return Err(format!("hot_fraction = {hot_fraction} is outside (0, 1]"));
                }
                if !(0.0..=1.0).contains(&hot_weight) {
                    return Err(format!("hot_weight = {hot_weight} is outside [0, 1]"));
                }
                Ok(())
            }
        }
    }

    /// Maps request `req` onto a key index in `[0, n)`. Pure in `(self,
    /// req, n)`; `n = 0` returns 0.
    pub fn index(&self, req: u64, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        match *self {
            KeyPopularity::Sequential => req % n,
            KeyPopularity::Zipfian { theta } => {
                let u = unit(req, 0x5eed_2f1a_9c3b_d701);
                let rank = (n as f64 * u.powf(1.0 / (1.0 - theta))) as u64;
                rank.min(n - 1)
            }
            KeyPopularity::HotSet { hot_fraction, hot_weight } => {
                let hot_n = ((hot_fraction * n as f64).ceil() as u64).clamp(1, n);
                let u = unit(req, 0x5eed_2f1a_9c3b_d701);
                if u < hot_weight || hot_n == n {
                    let hot = (unit(req, 0x1107_5a17_0000_0001) * hot_n as f64) as u64;
                    hot.min(hot_n - 1)
                } else {
                    let cold = n - hot_n;
                    hot_n + (unit(req, 0xc01d_5a17_0000_0001) * cold as f64) as u64
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_is_the_historical_mapping() {
        let d = KeyPopularity::Sequential;
        for req in 0..1000u64 {
            assert_eq!(d.index(req, 37), req % 37);
        }
    }

    #[test]
    fn zipfian_concentrates_on_low_ranks() {
        let d = KeyPopularity::Zipfian { theta: 0.9 };
        let n = 10_000u64;
        let hits_low = (0..100_000u64)
            .filter(|&r| d.index(r, n) < n / 100)
            .count();
        // With theta 0.9 the hottest 1% of keys should take far more than
        // 1% of the traffic.
        assert!(hits_low > 20_000, "hot-1% share: {hits_low}/100000");
        // Deterministic and in range.
        assert_eq!(d.index(42, n), d.index(42, n));
        assert!((0..10_000u64).all(|r| d.index(r, n) < n));
    }

    #[test]
    fn hotset_honours_the_weight() {
        let d = KeyPopularity::HotSet { hot_fraction: 0.01, hot_weight: 0.9 };
        let n = 10_000u64;
        let hot_n = 100u64;
        let hits_hot = (0..100_000u64)
            .filter(|&r| d.index(r, n) < hot_n)
            .count();
        let share = hits_hot as f64 / 100_000.0;
        assert!((share - 0.9).abs() < 0.02, "hot share {share}");
        assert!((0..10_000u64).all(|r| d.index(r, n) < n));
    }

    #[test]
    fn validate_names_fields() {
        assert!(KeyPopularity::Zipfian { theta: 1.0 }.validate().is_err());
        assert!(KeyPopularity::Zipfian { theta: 0.99 }.validate().is_ok());
        assert!(KeyPopularity::HotSet { hot_fraction: 0.0, hot_weight: 0.5 }
            .validate()
            .is_err());
        assert!(KeyPopularity::HotSet { hot_fraction: 0.1, hot_weight: 1.5 }
            .validate()
            .is_err());
        assert!(KeyPopularity::Sequential.validate().is_ok());
    }
}
