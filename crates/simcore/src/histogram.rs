//! Log-bucketed histograms for latency and slack distributions.
//!
//! [`LogHistogram`] is an HDR-style histogram: values are bucketed with
//! bounded relative error so that 50th–99.9th percentiles of latencies
//! spanning microseconds to minutes can be recorded compactly. The paper's
//! CDF figures (Figs. 5–7) are produced from these histograms.

use serde::Serialize;

/// Number of linear sub-buckets per power of two (~1.5 % relative error).
const SUB_BUCKETS: usize = 64;
/// Mantissa bits that pick the sub-bucket: the top `log2(SUB_BUCKETS)`.
const SUB_BITS: u32 = SUB_BUCKETS.ilog2();
const MANTISSA_BITS: u32 = 52;
const MANTISSA_MASK: u64 = (1 << MANTISSA_BITS) - 1;
/// Mantissas this close to either end of a binade take the reference
/// path. Near the top of a binade `log2` can round up to the next integer
/// — from up to 354 mantissas below 2^1024, fewer at smaller exponents —
/// and the reference then files the value under the next exponent, which
/// the bits alone would not; the bottom end is fenced off symmetrically.
const EDGE_MANTISSAS: u64 = 1 << 11;

/// A log-bucketed histogram of non-negative `f64` samples.
///
/// ```
/// use escra_simcore::histogram::LogHistogram;
/// let mut h = LogHistogram::new();
/// for v in [1.0, 2.0, 3.0, 4.0, 100.0] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.percentile(50.0) >= 2.0 && h.percentile(50.0) <= 3.1);
/// assert!(h.percentile(100.0) >= 99.0);
/// ```
#[derive(Debug, Clone, Default, Serialize)]
pub struct LogHistogram {
    /// counts[e][s]: bucket for values in [2^(e-B), 2^(e-B+1)) split into
    /// SUB_BUCKETS linear slots; sparse map keyed by exponent.
    buckets: Vec<(i32, Vec<u64>)>,
    zero_count: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// The `(exponent, sub-bucket)` of a positive finite `value`, read off
/// its bits: the unbiased binary exponent and the top [`SUB_BITS`] of the
/// mantissa. That is what [`bucket_of_reference`] computes for a normal
/// value away from a binade edge: its `log2` lies strictly inside `(e,
/// e + 1)` so `floor` gives the exponent `e`, `powi(e)` is exactly `2^e`,
/// `value − 2^e` is exact (Sterbenz), and dividing by `2^e` and scaling by
/// [`SUB_BUCKETS`] are exact, so the truncation keeps exactly the top
/// mantissa bits. Subnormals (where `powi` underflows) and values within
/// [`EDGE_MANTISSAS`] of a binade edge go to the reference itself, so the
/// two agree on every input — the bucket `record` files a sample under
/// never depends on which path found it.
fn bucket_of(value: f64) -> (i32, usize) {
    debug_assert!(value > 0.0);
    let bits = value.to_bits();
    let biased = (bits >> MANTISSA_BITS) as i32; // the sign bit is clear
    let mantissa = bits & MANTISSA_MASK;
    let away_from_edges =
        mantissa.wrapping_sub(EDGE_MANTISSAS) <= MANTISSA_MASK - 2 * EDGE_MANTISSAS;
    if biased == 0 || !away_from_edges {
        return bucket_of_reference(value);
    }
    (
        biased - 1023,
        (mantissa >> (MANTISSA_BITS - SUB_BITS)) as usize,
    )
}

/// [`bucket_of`] by floating-point arithmetic: `floor(log2(value))` and the
/// linear position above `2^exp`.
fn bucket_of_reference(value: f64) -> (i32, usize) {
    let exp = value.log2().floor() as i32;
    let base = (2.0f64).powi(exp);
    let frac = (value - base) / base; // in [0, 1)
    let sub = ((frac * SUB_BUCKETS as f64) as usize).min(SUB_BUCKETS - 1);
    (exp, sub)
}

fn bucket_midpoint(exp: i32, sub: usize) -> f64 {
    let base = (2.0f64).powi(exp);
    base + base * (sub as f64 + 0.5) / SUB_BUCKETS as f64
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: Vec::new(),
            zero_count: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    ///
    /// Negative samples are clamped to zero (slack can be transiently
    /// negative during a limit update; the paper reports absolute slack).
    pub fn record(&mut self, value: f64) {
        let v = if value.is_finite() {
            value.max(0.0)
        } else {
            0.0
        };
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v == 0.0 {
            self.zero_count += 1;
            return;
        }
        let (exp, sub) = bucket_of(v);
        match self.buckets.binary_search_by_key(&exp, |(e, _)| *e) {
            Ok(i) => self.buckets[i].1[sub] += 1,
            Err(i) => {
                let mut row = vec![0u64; SUB_BUCKETS];
                row[sub] = 1;
                self.buckets.insert(i, (exp, row));
            }
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no samples are recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded sample (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Value at percentile `p` in `[0, 100]`, with bounded relative error.
    ///
    /// Returns 0.0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.count == 0 {
            return 0.0;
        }
        if p >= 100.0 {
            return self.max;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = self.zero_count;
        if rank <= seen {
            return 0.0;
        }
        for (exp, row) in &self.buckets {
            for (sub, c) in row.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_midpoint(*exp, sub).min(self.max).max(self.min);
                }
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.zero_count += other.zero_count;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        for (exp, row) in &other.buckets {
            match self.buckets.binary_search_by_key(exp, |(e, _)| *e) {
                Ok(i) => {
                    for (s, c) in row.iter().enumerate() {
                        self.buckets[i].1[s] += c;
                    }
                }
                Err(i) => self.buckets.insert(i, (*exp, row.clone())),
            }
        }
    }

    /// Extracts an empirical CDF as `(value, cumulative_fraction)` points,
    /// one point per non-empty bucket — the series plotted in Figs. 5–7.
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        let mut points = Vec::new();
        if self.count == 0 {
            return points;
        }
        let total = self.count as f64;
        let mut cum = self.zero_count;
        if self.zero_count > 0 {
            points.push((0.0, cum as f64 / total));
        }
        for (exp, row) in &self.buckets {
            for (sub, c) in row.iter().enumerate() {
                if *c > 0 {
                    cum += c;
                    points.push((bucket_midpoint(*exp, sub), cum as f64 / total));
                }
            }
        }
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(50.0), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.cdf().is_empty());
    }

    #[test]
    fn exact_small_values() {
        let mut h = LogHistogram::new();
        h.record(0.0);
        h.record(0.0);
        h.record(10.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.percentile(50.0), 0.0);
        assert!(h.percentile(99.0) > 9.0);
    }

    #[test]
    fn percentiles_within_relative_error() {
        let mut h = LogHistogram::new();
        for i in 1..=10_000 {
            h.record(i as f64);
        }
        for (p, expect) in [(50.0, 5000.0), (90.0, 9000.0), (99.0, 9900.0)] {
            let got = h.percentile(p);
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.03, "p{p}: got {got}, want ~{expect}");
        }
        assert_eq!(h.percentile(100.0), 10_000.0);
        assert_eq!(h.min(), 1.0);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for i in 0..1000 {
            let v = (i as f64) * 0.37 + 0.01;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        for p in [10.0, 50.0, 95.0, 99.9] {
            assert!((a.percentile(p) - both.percentile(p)).abs() < 1e-9);
        }
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut h = LogHistogram::new();
        let mut rng = crate::rng::SimRng::new(23);
        for _ in 0..5000 {
            h.record(rng.exponential(0.01));
        }
        let cdf = h.cdf();
        assert!(!cdf.is_empty());
        let mut last_v = f64::NEG_INFINITY;
        let mut last_f = 0.0;
        for (v, f) in &cdf {
            assert!(*v > last_v);
            assert!(*f >= last_f);
            last_v = *v;
            last_f = *f;
        }
        assert!((last_f - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bucket_of_is_the_log2_reference_to_the_bucket() {
        let check = |v: f64| {
            let want = bucket_of_reference(v);
            assert_eq!(bucket_of(v), want, "{v:e} ({:#x})", v.to_bits());
        };
        // The first and last 4 096 mantissas of every binade, the
        // subnormal one included.
        for biased in 0..0x7ffu64 {
            let edges = (0..4_096).chain(MANTISSA_MASK - 4_095..=MANTISSA_MASK);
            for mantissa in edges {
                let v = f64::from_bits(biased << MANTISSA_BITS | mantissa);
                if v > 0.0 {
                    check(v);
                }
            }
        }
        // Subnormals across their range, the normal extremes, powers of
        // two and their neighbours.
        for mantissa in (1..=MANTISSA_MASK).step_by(1_000_000_007) {
            check(f64::from_bits(mantissa));
        }
        check(5e-324);
        check(f64::MAX);
        for v in [f64::MIN_POSITIVE, 0.5, 1.0, 2.0, 1e-3, 1e6] {
            check(v);
            check(f64::from_bits(v.to_bits() + 1));
            check(f64::from_bits(v.to_bits() - 1));
        }
        // 10^6 random positive finite bit patterns.
        let mut rng = crate::rng::SimRng::new(0x6275_636b); // "buck"
        let mut checked = 0;
        while checked < 1_000_000 {
            let v = f64::from_bits(rng.next_u64() >> 1);
            if v.is_finite() && v > 0.0 {
                check(v);
                checked += 1;
            }
        }
    }

    #[test]
    fn handles_tiny_values() {
        let mut h = LogHistogram::new();
        h.record(1e-7);
        h.record(2e-7);
        assert!(h.percentile(50.0) > 0.0);
        assert!(h.percentile(50.0) < 1e-6);
    }
}
