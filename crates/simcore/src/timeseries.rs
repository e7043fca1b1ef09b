//! Time-series recording.
//!
//! The limit-over-time plots (Figs. 2, 8, 9) are produced from
//! [`TimeSeries`] recorders: append-only `(time, value)` samples with a
//! helper for per-second averaging.

use crate::time::{SimDuration, SimTime};
use serde::{Serialize, Value};
use std::fmt;

/// The sample times of a series. Recorders sample on a grid — once a
/// second, once a report period — so the times are kept as
/// `first + i × step` for as long as that holds (three words, however
/// long the run) and are spelled out only once a sample breaks the grid.
/// Prints and serializes as the plain list of times either way.
#[derive(Clone)]
enum Times {
    Grid {
        first: SimTime,
        step: SimDuration,
        len: usize,
    },
    List(Vec<SimTime>),
}

impl Times {
    const EMPTY: Times = Times::Grid {
        first: SimTime::ZERO,
        step: SimDuration::ZERO,
        len: 0,
    };

    fn len(&self) -> usize {
        match self {
            Times::Grid { len, .. } => *len,
            Times::List(list) => list.len(),
        }
    }

    /// The `i`-th sample time (`i < len`).
    fn get(&self, i: usize) -> SimTime {
        match self {
            Times::Grid { first, step, .. } => *first + *step * i as u64,
            Times::List(list) => list[i],
        }
    }

    fn iter(&self) -> impl Iterator<Item = SimTime> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    fn push(&mut self, t: SimTime) {
        if let Times::Grid { first, step, len } = self {
            let on_grid = match *len {
                0 => {
                    *first = t;
                    true
                }
                1 if t >= *first => {
                    *step = t - *first;
                    true
                }
                n => n >= 2 && t == *first + *step * n as u64,
            };
            if on_grid {
                *len += 1;
                return;
            }
            // Off the grid: spell the times out from here on.
            *self = Times::List(self.iter().collect());
        }
        if let Times::List(list) = self {
            list.push(t);
        }
    }
}

impl fmt::Debug for Times {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Serialize for Times {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(|t| t.to_value()).collect())
    }
}

/// An append-only series of `(time, value)` samples.
///
/// ```
/// use escra_simcore::{timeseries::TimeSeries, time::SimTime};
/// let mut ts = TimeSeries::new("cpu_limit");
/// ts.record(SimTime::from_secs(0), 4.0);
/// ts.record(SimTime::from_secs(1), 6.0);
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.last(), Some(6.0));
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct TimeSeries {
    name: String,
    times: Times,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty, named series.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            times: Times::EMPTY,
            values: Vec::new(),
        }
    }

    /// Reserves room for exactly `additional` more samples: a recorder
    /// that knows its sample count up front (one per simulated second)
    /// then never regrows, and holds no doubling slack at the end.
    pub fn reserve_exact(&mut self, additional: usize) {
        if let Times::List(list) = &mut self.times {
            list.reserve_exact(additional);
        }
        self.values.reserve_exact(additional);
    }

    /// The series name (used as a column header in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `t` is earlier than the last sample.
    pub fn record(&mut self, t: SimTime, value: f64) {
        debug_assert!(
            self.is_empty() || self.times.get(self.len() - 1) <= t,
            "time series must be recorded in order"
        );
        self.times.push(t);
        self.values.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when no samples are recorded.
    pub fn is_empty(&self) -> bool {
        self.times.len() == 0
    }

    /// Most recent value.
    pub fn last(&self) -> Option<f64> {
        self.values.last().copied()
    }

    /// Iterates over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.times.iter().zip(self.values.iter().copied())
    }

    /// Mean of all values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Maximum value (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    /// Averages samples into fixed `bucket_secs`-second buckets, returning
    /// `(bucket_start_secs, mean_value)` — the per-second averaging used in
    /// Figs. 8 and 9.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_secs` is zero.
    pub fn resample_secs(&self, bucket_secs: u64) -> Vec<(f64, f64)> {
        assert!(bucket_secs > 0, "bucket size must be positive");
        let mut out: Vec<(f64, f64)> = Vec::new();
        let mut bucket: Option<(u64, f64, u64)> = None; // (index, sum, n)
        for (t, v) in self.iter() {
            let idx = t.as_micros() / (bucket_secs * 1_000_000);
            match bucket {
                Some((cur, ref mut sum, ref mut n)) if cur == idx => {
                    *sum += v;
                    *n += 1;
                }
                Some((cur, sum, n)) => {
                    out.push(((cur * bucket_secs) as f64, sum / n as f64));
                    bucket = Some((idx, v, 1));
                }
                None => bucket = Some((idx, v, 1)),
            }
        }
        if let Some((cur, sum, n)) = bucket {
            out.push(((cur * bucket_secs) as f64, sum / n as f64));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(samples: &[(u64, f64)]) -> TimeSeries {
        let mut ts = TimeSeries::new("t");
        for (ms, v) in samples {
            ts.record(SimTime::from_millis(*ms), *v);
        }
        ts
    }

    #[test]
    fn basic_accessors() {
        let ts = series(&[(0, 1.0), (500, 3.0)]);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.mean(), 2.0);
        assert_eq!(ts.max(), Some(3.0));
        assert_eq!(ts.name(), "t");
        let pairs: Vec<_> = ts.iter().collect();
        assert_eq!(pairs[0], (SimTime::ZERO, 1.0));
    }

    #[test]
    fn resample_averages_within_buckets() {
        let ts = series(&[(0, 2.0), (400, 4.0), (1200, 10.0), (1800, 20.0)]);
        let r = ts.resample_secs(1);
        assert_eq!(r, vec![(0.0, 3.0), (1.0, 15.0)]);
    }

    #[test]
    fn resample_skips_empty_buckets() {
        let ts = series(&[(0, 1.0), (5000, 9.0)]);
        let r = ts.resample_secs(1);
        assert_eq!(r, vec![(0.0, 1.0), (5.0, 9.0)]);
    }

    #[test]
    fn grid_times_print_serialize_and_iterate_as_the_plain_list() {
        // On the grid throughout, off it at every position, a repeated
        // first time (step zero), and a single sample.
        let cases: [&[u64]; 7] = [
            &[],
            &[700],
            &[1000, 2000, 3000, 4000, 5000],
            &[1000, 2000, 3000, 3500, 4500],
            &[1000, 2000, 2500],
            &[5, 5, 5, 6, 7],
            &[0, 100, 200, 300, 300, 1_000_000],
        ];
        for ms in cases {
            let want: Vec<SimTime> = ms.iter().map(|&m| SimTime::from_millis(m)).collect();
            let mut ts = TimeSeries::new("t");
            for (i, &t) in want.iter().enumerate() {
                ts.record(t, i as f64);
            }
            assert_eq!(ts.len(), want.len());
            assert_eq!(ts.iter().map(|(t, _)| t).collect::<Vec<_>>(), want);
            assert_eq!(format!("{:?}", ts.times), format!("{want:?}"));
            assert_eq!(format!("{:#?}", ts.times), format!("{want:#?}"));
            assert_eq!(ts.times.to_value(), want.to_value());
        }
        // A run that stays on its grid never spells the times out.
        let mut ts = TimeSeries::new("t");
        ts.reserve_exact(10_000);
        for s in 1..=10_000 {
            ts.record(SimTime::from_secs(s), 0.0);
        }
        assert!(matches!(ts.times, Times::Grid { len: 10_000, .. }));
    }

    #[test]
    fn empty_series_behaviour() {
        let ts = TimeSeries::new("e");
        assert!(ts.is_empty());
        assert_eq!(ts.last(), None);
        assert!(ts.resample_secs(1).is_empty());
    }
}
