//! Deterministic random number generation.
//!
//! Every source of randomness in the simulator flows from a single `u64`
//! seed through [`SimRng`], a xoshiro256\*\* generator seeded via SplitMix64.
//! Independent logical streams (one per container, per workload, ...) are
//! derived with [`SimRng::fork`] so that adding a consumer never perturbs
//! the draws seen by existing consumers.
//!
//! Normals come from a 256-layer ziggurat (Marsaglia & Tsang 2000) over
//! tables built once per process: 98.5 % of draws take one `u64` and
//! no libm call. The low 8 bits pick the layer and the top 53 bits give
//! the signed uniform. The wedge's `exp` and the tail's `ln` run only on
//! the rare slow path. A lognormal is `normal(mu, sigma).exp()`, so its
//! one `exp` is the only libm call most draws make.

use std::sync::OnceLock;

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

/// Where the ziggurat's base layer hands over to the tail sampler.
const ZIG_R: f64 = 3.654_152_885_361_009;
/// The area of every ziggurat layer (the base layer counts its tail):
/// `R f(R) + ∫_R^∞ f` for `f(x) = exp(−x²/2)`.
const ZIG_V: f64 = 4.928_673_233_974_646e-3;

/// The 256-layer ziggurat under `f(x) = exp(−x²/2)`: layer `i` spans
/// heights `f[i]..f[i + 1]` and widths `0..x[i]`; `x[0] = V / f(R)` is
/// the base layer's virtual width and `x[256] = 0` the peak.
struct Ziggurat {
    x: [f64; 257],
    f: [f64; 257],
}

fn ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(|| {
        let pdf = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; 257];
        x[0] = ZIG_V / pdf(ZIG_R);
        x[1] = ZIG_R;
        // Layer i − 1 has area V: x[i − 1] (f(x[i]) − f(x[i − 1])) = V.
        for i in 2..256 {
            x[i] = (-2.0 * (ZIG_V / x[i - 1] + pdf(x[i - 1])).ln()).sqrt();
        }
        Ziggurat { x, f: x.map(pdf) }
    })
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

    /// Normally distributed value (ziggurat; see the module docs).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        debug_assert!(std_dev >= 0.0);
        mean + std_dev * self.standard_normal()
    }

    fn standard_normal(&mut self) -> f64 {
        let zig = ziggurat();
        loop {
            let bits = self.next_u64();
            let i = (bits & 0xff) as usize;
            // 53 high bits → uniform double in [−1, 1).
            let u = (bits >> 11) as f64 * (1.0 / (1u64 << 52) as f64) - 1.0;
            let x = u * zig.x[i];
            if x.abs() < zig.x[i + 1] {
                return x;
            }
            if i == 0 {
                return self.normal_tail(u < 0.0);
            }
            let y = zig.f[i] + (zig.f[i + 1] - zig.f[i]) * self.next_f64();
            if y < (-0.5 * x * x).exp() {
                return x;
            }
        }
    }

    /// A draw from the normal's tail beyond `ZIG_R` (Marsaglia 1964),
    /// negated when `negative`.
    fn normal_tail(&mut self, negative: bool) -> f64 {
        loop {
            // (1 - u) avoids ln(0).
            let a = -(1.0 - self.next_f64()).ln() / ZIG_R;
            let b = -(1.0 - self.next_f64()).ln();
            if b + b >= a * a {
                return if negative { -(ZIG_R + a) } else { ZIG_R + a };
            }
        }
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

    /// Φ, the standard normal CDF, through the Chebyshev fit of `erfc`
    /// in Numerical Recipes (`erfcc`, relative error < 1.2e-7).
    fn std_normal_cdf(x: f64) -> f64 {
        let z = x.abs() / core::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.5 * z);
        let poly = [
            -1.265_512_23,
            1.000_023_68,
            0.374_091_96,
            0.096_784_18,
            -0.186_288_06,
            0.278_868_07,
            -1.135_203_98,
            1.488_515_87,
            -0.822_152_23,
            0.170_872_77,
        ]
        .iter()
        .rev()
        .fold(0.0, |acc, c| c + t * acc);
        let erfc = t * (-z * z + poly).exp();
        if x >= 0.0 {
            1.0 - 0.5 * erfc
        } else {
            0.5 * erfc
        }
    }

    #[test]
    fn normals_pass_kolmogorov_smirnov_against_phi() {
        let mut r = SimRng::new(29);
        let n = 1_000_000;
        let mut xs: Vec<f64> = (0..n).map(|_| r.normal(0.0, 1.0)).collect();
        xs.sort_unstable_by(f64::total_cmp);
        let nf = n as f64;
        let d = xs.iter().enumerate().fold(0.0f64, |d, (i, &x)| {
            let p = std_normal_cdf(x);
            d.max(p - i as f64 / nf).max((i + 1) as f64 / nf - p)
        });
        // The α = 0.001 critical value of the one-sample KS statistic.
        let limit = 1.95 / nf.sqrt();
        assert!(d < limit, "KS statistic {d} >= {limit}");
    }

    #[test]
    fn normal_tails_hold_their_mass() {
        let mut r = SimRng::new(31);
        let n = 4_000_000u64;
        let (mut beyond3, mut beyond4) = (0u64, 0u64);
        for _ in 0..n {
            let z = r.normal(0.0, 1.0).abs();
            beyond3 += u64::from(z > 3.0);
            beyond4 += u64::from(z > 4.0);
        }
        // P(|z| > 3) and P(|z| > 4), each held to 4 binomial σ.
        for (count, p, what) in [
            (beyond3, 2.699_796_063_260_2e-3, "|z| > 3"),
            (beyond4, 6.334_248_366_624e-5, "|z| > 4"),
        ] {
            let nf = n as f64;
            let sigma = (nf * p * (1.0 - p)).sqrt();
            let dev = (count as f64 - nf * p) / sigma;
            assert!(
                dev.abs() < 4.0,
                "{what}: {count} draws, {dev:+.2} σ from {}",
                nf * p
            );
        }
    }

    #[test]
    fn every_ziggurat_layer_has_area_v() {
        let zig = ziggurat();
        let pdf = |x: f64| (-0.5 * x * x).exp();
        assert_eq!(zig.x[1], ZIG_R);
        assert_eq!(zig.x[256], 0.0);
        assert_eq!(zig.f[256], 1.0);
        // Layers 1..=255 are rectangles; the top one closes at f(0) = 1.
        for i in 1..256 {
            let area = zig.x[i] * (zig.f[i + 1] - zig.f[i]);
            assert!((area - ZIG_V).abs() < 1e-12, "layer {i}: area {area}");
        }
        // The base layer: the rectangle to R, then the tail, by Simpson's
        // rule over [R, R + 40].
        let (steps, h) = (200_000, 40.0 / 200_000.0);
        let inner: f64 = (1..steps)
            .map(|k| pdf(ZIG_R + k as f64 * h) * if k % 2 == 1 { 4.0 } else { 2.0 })
            .sum();
        let tail = (pdf(ZIG_R) + pdf(ZIG_R + 40.0) + inner) * h / 3.0;
        let base = ZIG_R * pdf(ZIG_R) + tail;
        assert!((base - ZIG_V).abs() < 1e-12, "base layer: area {base}");
        assert!((zig.x[0] * zig.f[1] - ZIG_V).abs() < 1e-12);
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
