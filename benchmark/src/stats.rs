//! Order statistics used by every metric: the fastest of the
//! repetitions, percentiles over decision samples, and the quartiles and
//! quartile spread the self-check compares against the bounds in
//! `BENCHMARK.json`.

/// The smallest of `values` (infinity for none): the fastest of several
/// timings of identical work. Noise can only add time, so the minimum is
/// the estimate a burst has to try hardest to move (`NOISE.md`).
pub fn fastest(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

/// The three quartiles of `values`, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// does — the benchmark's driver uses that function, so the self-check
/// must agree with it to the last digit.
///
/// # Panics
///
/// Panics with fewer than two values or a NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quartiles"));
    let m = v.len();
    let n = 4;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * (m + 1) / n).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread the driver holds against each metric's bound.
pub fn iqr_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `sorted` (ascending), interpolated
/// linearly between the two nearest order statistics.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f32], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let at = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = at.floor() as usize;
    let above = (below + 1).min(sorted.len() - 1);
    let (lo, hi) = (sorted[below] as f64, sorted[above] as f64);
    lo + (hi - lo) * (at - below as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest([3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest([]), f64::INFINITY);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // python3 -c "import statistics as s; print(s.quantiles([1,2,3,4,5,6,7,8,9,10], n=4))"
        // -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // s.quantiles([10.0, 10.4, 9.9, 10.1, 10.3, 9.8, 10.2], n=4) -> [9.9, 10.1, 10.3]
        let q = quartiles(&[10.0, 10.4, 9.9, 10.1, 10.3, 9.8, 10.2]);
        for (got, want) in q.iter().zip([9.9, 10.1, 10.3]) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
        // Two values: s.quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let s = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&s, 0.0), 10.0);
        assert_eq!(quantile(&s, 0.5), 30.0);
        assert_eq!(quantile(&s, 1.0), 50.0);
        // A tenth of the way along four gaps: 0.4 of the way from 10 to 20.
        assert!((quantile(&s, 0.1) - 14.0).abs() < 1e-9);
        assert_eq!(quantile(&[7.5], 0.99), 7.5);
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let mut s: Vec<f32> = (0..1000).map(|i| 30.0 + (i * 7919 % 23) as f32).collect();
        s.sort_unstable_by(f32::total_cmp);
        let mut last = f64::MIN;
        for k in 0..=100 {
            let v = quantile(&s, k as f64 / 100.0);
            assert!(v >= last, "q={k}% gave {v} after {last}");
            last = v;
        }
    }
}
