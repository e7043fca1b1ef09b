//! Deterministic random number generation.
//!
//! Every source of randomness in the simulator flows from a single `u64`
//! seed through [`SimRng`], a xoshiro256\*\* generator seeded via SplitMix64.
//! Independent logical streams (one per container, per workload, ...) are
//! derived with [`SimRng::fork`] so that adding a consumer never perturbs
//! the draws seen by existing consumers.

/// A deterministic pseudo-random number generator (xoshiro256\*\*).
///
/// ```
/// use escra_simcore::rng::SimRng;
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `(mu, sigma)` of the normal underlying a lognormal with the given
/// `mean` and coefficient of variation `cv`, as [`SimRng::lognormal`]
/// takes them: `sigma² = ln(1 + cv²)`, `mu = ln(mean) − sigma²/2`.
///
/// Every lognormal the workloads draw is parameterised here, so a caller
/// that draws many values may work the pair out once and still draw the
/// same bits.
pub fn lognormal_params(mean: f64, cv: f64) -> (f64, f64) {
    let sigma2 = (1.0 + cv * cv).ln();
    (mean.ln() - sigma2 / 2.0, sigma2.sqrt())
}

impl SimRng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent stream labelled by `stream`.
    ///
    /// Forking with distinct labels from the same parent yields streams
    /// that do not overlap in practice, and forking is itself deterministic.
    pub fn fork(&self, stream: u64) -> SimRng {
        // Mix the parent state with the label through SplitMix64.
        let mut sm = self.s[0]
            .wrapping_mul(0xA076_1D64_78BD_642F)
            .wrapping_add(stream ^ self.s[3].rotate_left(17));
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire-style rejection-free multiply-shift; bias is negligible
        // for the bounds used in the simulator and determinism is what
        // matters here.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform float in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponentially distributed value with the given `rate` (λ).
    ///
    /// Mean is `1 / rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "rate must be positive");
        // Inverse transform; (1 - u) avoids ln(0).
        -(1.0 - self.next_f64()).ln() / rate
    }

    /// Normally distributed value (Box–Muller).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        debug_assert!(std_dev >= 0.0);
        let u1 = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        let mag = (-2.0 * u1.ln()).sqrt();
        mean + std_dev * mag * (2.0 * core::f64::consts::PI * u2).cos()
    }

    /// Log-normally distributed value parameterised by the mean and standard
    /// deviation of the underlying normal.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Picks an index according to non-negative `weights`, read twice
    /// (once to sum them, once to walk them), so a caller can pass them
    /// where they lie — `classes.iter().map(|c| c.weight)` — instead of
    /// collecting them first.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_index<I>(&mut self, weights: I) -> usize
    where
        I: IntoIterator<Item = f64>,
        I::IntoIter: Clone,
    {
        let weights = weights.into_iter();
        let total: f64 = weights.clone().sum();
        assert!(total > 0.0, "weights must be non-empty with positive sum");
        let mut x = self.next_f64() * total;
        let mut last = 0;
        for (i, w) in weights.enumerate() {
            if x < w {
                return i;
            }
            x -= w;
            last = i;
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_independent_and_deterministic() {
        let root = SimRng::new(1);
        let mut f1 = root.fork(1);
        let mut f2 = root.fork(2);
        let mut f1b = root.fork(1);
        assert_eq!(f1.next_u64(), f1b.next_u64());
        // Distinct labels should (with overwhelming probability) differ.
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn uniform_in_range() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            let y = r.uniform(5.0, 6.0);
            assert!((5.0..6.0).contains(&y));
            let z = r.next_below(10);
            assert!(z < 10);
        }
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = SimRng::new(11);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn normal_moments_close() {
        let mut r = SimRng::new(17);
        let n = 40_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn lognormal_params_hit_the_requested_mean_and_cv() {
        let (mu, sigma) = lognormal_params(2_000.0, 0.5);
        assert_eq!(sigma.to_bits(), 1.25f64.ln().sqrt().to_bits());
        let mut r = SimRng::new(23);
        let n = 80_000;
        let xs: Vec<f64> = (0..n).map(|_| r.lognormal(mu, sigma)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean / 2_000.0 - 1.0).abs() < 0.02, "mean {mean}");
        assert!(
            (var.sqrt() / mean - 0.5).abs() < 0.02,
            "cv {}",
            var.sqrt() / mean
        );
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = SimRng::new(19);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[r.weighted_index([1.0, 2.0, 7.0])] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0]);
        let frac = counts[2] as f64 / 30_000.0;
        assert!((frac - 0.7).abs() < 0.02, "frac {frac}");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        SimRng::new(0).next_below(0);
    }
}
