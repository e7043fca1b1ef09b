//! The normalized trace-workload form shared by the Azure-Functions CSV
//! loader ([`crate::azure_trace`]) and the synthetic generator
//! ([`crate::synthetic_trace`]).
//!
//! Both sources reduce to one shape: a list of traced apps, each with a
//! per-minute invocation-rate series and a lognormal execution-duration
//! model plus memory footprints. The `trace_sim` driver in
//! `escra-harness` instantiates one Distributed Container (one Escra
//! application pool) per [`TraceApp`].

use escra_simcore::rng::SimRng;
use escra_simcore::time::{SimDuration, SimTime};
use serde::Serialize;

/// z-score of the 99th percentile of the standard normal — used to fit
/// a lognormal from (p50, p99) duration percentiles.
pub const Z99: f64 = 2.326_347_874_040_841;

/// One traced serverless application.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceApp {
    /// Application name (the CSV `app` column, or a generated id).
    pub name: String,
    /// Invocations per minute, one entry per trace minute. The series is
    /// cycled if the simulated run outlives the trace.
    pub rpm: Vec<f64>,
    /// Lognormal location of the execution duration, in ln-milliseconds
    /// (`exp(exec_ms_mu)` is the median duration in ms).
    pub exec_ms_mu: f64,
    /// Lognormal scale of the execution duration (0 = deterministic).
    pub exec_ms_sigma: f64,
    /// Peak working memory during an invocation, in MiB.
    pub mem_mib: u64,
    /// Resident memory of a warm, idle pod, in MiB.
    pub idle_mem_mib: u64,
}

impl TraceApp {
    /// Instantaneous invocation rate at `t`, in requests per second
    /// (the minute's rpm over 60), cycling the series.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        if self.rpm.is_empty() {
            return 0.0;
        }
        let minute = (t.as_micros() / 60_000_000) as usize % self.rpm.len();
        self.rpm[minute] / 60.0
    }

    /// Mean invocations per minute over the trace.
    pub fn mean_rpm(&self) -> f64 {
        if self.rpm.is_empty() {
            0.0
        } else {
            self.rpm.iter().sum::<f64>() / self.rpm.len() as f64
        }
    }

    /// Median execution duration, in milliseconds.
    pub fn exec_ms_median(&self) -> f64 {
        self.exec_ms_mu.exp()
    }

    /// Samples one invocation's CPU work, in core-microseconds.
    pub fn sample_exec_us(&self, rng: &mut SimRng) -> f64 {
        let mu_us = self.exec_ms_mu + 1_000f64.ln();
        if self.exec_ms_sigma <= 0.0 {
            mu_us.exp()
        } else {
            rng.lognormal(mu_us, self.exec_ms_sigma)
        }
    }
}

/// A set of traced apps over a common minute grid — the single input
/// form of the `trace_sim` driver.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceWorkload {
    /// The traced applications.
    pub apps: Vec<TraceApp>,
    /// Trace length, in minutes (every app's `rpm` has this length).
    pub minutes: usize,
}

impl TraceWorkload {
    /// Trace length as a duration.
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_secs(self.minutes as u64 * 60)
    }

    /// Expected invocations over one pass of the trace (the sum of every
    /// app's rpm series).
    pub fn expected_invocations(&self) -> f64 {
        self.apps
            .iter()
            .map(|a| a.rpm.iter().sum::<f64>())
            .sum::<f64>()
    }

    /// Fits `(exec_ms_mu, exec_ms_sigma)` from duration percentiles:
    /// `mu = ln p50`, `sigma = ln(p99/p50) / z₉₉` (clamped at 0 for
    /// degenerate inputs).
    pub fn fit_lognormal_ms(p50_ms: f64, p99_ms: f64) -> (f64, f64) {
        let p50 = p50_ms.max(1e-6);
        let mu = p50.ln();
        let sigma = if p99_ms > p50 {
            (p99_ms / p50).ln() / Z99
        } else {
            0.0
        };
        (mu, sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app(rpm: Vec<f64>) -> TraceApp {
        TraceApp {
            name: "a".into(),
            rpm,
            exec_ms_mu: 100f64.ln(),
            exec_ms_sigma: 0.5,
            mem_mib: 128,
            idle_mem_mib: 16,
        }
    }

    #[test]
    fn rate_cycles_per_minute() {
        let a = app(vec![60.0, 120.0]);
        assert_eq!(a.rate_at(SimTime::from_secs(0)), 1.0);
        assert_eq!(a.rate_at(SimTime::from_secs(59)), 1.0);
        assert_eq!(a.rate_at(SimTime::from_secs(60)), 2.0);
        assert_eq!(a.rate_at(SimTime::from_secs(120)), 1.0); // cycled
        assert_eq!(a.mean_rpm(), 90.0);
    }

    #[test]
    fn empty_rpm_is_silent() {
        let a = app(Vec::new());
        assert_eq!(a.rate_at(SimTime::from_secs(5)), 0.0);
        assert_eq!(a.mean_rpm(), 0.0);
    }

    #[test]
    fn lognormal_fit_hits_percentiles() {
        let (mu, sigma) = TraceWorkload::fit_lognormal_ms(100.0, 1_000.0);
        assert!((mu.exp() - 100.0).abs() < 1e-9);
        // p99 of lognormal(mu, sigma) = exp(mu + z99 sigma).
        let p99 = (mu + Z99 * sigma).exp();
        assert!((p99 - 1_000.0).abs() < 1e-6, "p99 {p99}");
        // Degenerate: p99 <= p50 collapses to deterministic.
        let (_, s0) = TraceWorkload::fit_lognormal_ms(100.0, 100.0);
        assert_eq!(s0, 0.0);
    }

    #[test]
    fn exec_sampling_median_is_right() {
        let a = app(vec![60.0]);
        let mut rng = SimRng::new(42);
        let mut v: Vec<f64> = (0..4_001).map(|_| a.sample_exec_us(&mut rng)).collect();
        v.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let median_ms = v[2_000] / 1_000.0;
        assert!(
            (median_ms - 100.0).abs() < 10.0,
            "sampled median {median_ms} ms"
        );
    }

    #[test]
    fn expected_invocations_sums_apps() {
        let w = TraceWorkload {
            apps: vec![app(vec![10.0, 20.0]), app(vec![5.0, 5.0])],
            minutes: 2,
        };
        assert_eq!(w.expected_invocations(), 40.0);
        assert_eq!(w.duration(), SimDuration::from_secs(120));
    }
}
