//! Recorders for the paper's evaluation metrics (§VI-A):
//! application throughput (successful req/s), 99.9 %-ile end-to-end
//! latency, and absolute CPU/memory slack.

use escra_simcore::histogram::LogHistogram;
use escra_simcore::time::{SimDuration, SimTime};
use escra_simcore::timeseries::TimeSeries;
use serde::Serialize;

/// End-to-end request latency plus success/failure accounting.
#[derive(Debug, Clone, Default, Serialize)]
pub struct LatencyRecorder {
    hist_ms: LogHistogram,
    successes: u64,
    failures: u64,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        LatencyRecorder::default()
    }

    /// Records a successful request with its end-to-end latency.
    pub fn record_success(&mut self, latency: SimDuration) {
        self.successes += 1;
        self.hist_ms.record(latency.as_micros() as f64 / 1_000.0);
    }

    /// Records a failed request (timeout, or killed mid-flight).
    pub fn record_failure(&mut self) {
        self.failures += 1;
    }

    /// Successful requests.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Failed requests.
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Latency percentile in milliseconds (e.g. `p(99.9)`).
    pub fn p(&self, percentile: f64) -> f64 {
        self.hist_ms.percentile(percentile)
    }

    /// Mean latency in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.hist_ms.mean()
    }

    /// Throughput in successful requests per second over `duration`.
    pub fn throughput(&self, duration: SimDuration) -> f64 {
        if duration.is_zero() {
            0.0
        } else {
            self.successes as f64 / duration.as_secs_f64()
        }
    }

    /// The latency CDF `(ms, fraction)` (Fig. 7 panels).
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        self.hist_ms.cdf()
    }

    /// Folds another recorder's samples into this one — the combining
    /// step when per-thread recorders from a sharded run are reduced to
    /// one distribution. Counts add exactly; percentiles are as accurate
    /// as [`LogHistogram::merge`] (bucket-exact).
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.hist_ms.merge(&other.hist_ms);
        self.successes += other.successes;
        self.failures += other.failures;
    }
}

/// Absolute slack distributions: CPU in cores, memory in MiB — the
/// quantities whose CDFs are Figs. 5 and 6.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SlackRecorder {
    cpu_cores: LogHistogram,
    mem_mib: LogHistogram,
}

impl SlackRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        SlackRecorder::default()
    }

    /// Records one per-container sample: `limit − usage` for both
    /// resources (clamped at zero).
    pub fn record(&mut self, cpu_slack_cores: f64, mem_slack_mib: f64) {
        self.cpu_cores.record(cpu_slack_cores.max(0.0));
        self.mem_mib.record(mem_slack_mib.max(0.0));
    }

    /// CPU slack percentile, in cores.
    pub fn cpu_p(&self, percentile: f64) -> f64 {
        self.cpu_cores.percentile(percentile)
    }

    /// Memory slack percentile, in MiB.
    pub fn mem_p(&self, percentile: f64) -> f64 {
        self.mem_mib.percentile(percentile)
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.cpu_cores.count()
    }

    /// CPU slack CDF `(cores, fraction)` (Fig. 5).
    pub fn cpu_cdf(&self) -> Vec<(f64, f64)> {
        self.cpu_cores.cdf()
    }

    /// Memory slack CDF `(MiB, fraction)` (Fig. 6).
    pub fn mem_cdf(&self) -> Vec<(f64, f64)> {
        self.mem_mib.cdf()
    }

    /// Folds another recorder's samples into this one (per-thread
    /// recorder reduction; see [`LatencyRecorder::merge`]).
    pub fn merge(&mut self, other: &SlackRecorder) {
        self.cpu_cores.merge(&other.cpu_cores);
        self.mem_mib.merge(&other.mem_mib);
    }
}

/// Everything measured in one experiment run.
#[derive(Debug, Clone, Serialize)]
pub struct RunMetrics {
    /// Which policy produced this run (e.g. `"escra"`).
    pub policy: String,
    /// Request latency + success counters.
    pub latency: LatencyRecorder,
    /// Slack distributions.
    pub slack: SlackRecorder,
    /// Aggregate CPU limit over time, in cores (Figs. 8a/9a).
    pub cpu_limit_series: TimeSeries,
    /// Aggregate memory limit over time, in MiB (Figs. 8c/9c).
    pub mem_limit_series: TimeSeries,
    /// OOM kills suffered during the run (§VI-E).
    pub oom_kills: u64,
    /// Measured duration of the run.
    pub duration: SimDuration,
}

impl RunMetrics {
    /// Creates empty metrics for a named policy.
    pub fn new(policy: impl Into<String>) -> Self {
        RunMetrics {
            policy: policy.into(),
            latency: LatencyRecorder::new(),
            slack: SlackRecorder::new(),
            cpu_limit_series: TimeSeries::new("cpu_limit_cores"),
            mem_limit_series: TimeSeries::new("mem_limit_mib"),
            oom_kills: 0,
            duration: SimDuration::ZERO,
        }
    }

    /// Throughput in successful requests per second.
    pub fn throughput(&self) -> f64 {
        self.latency.throughput(self.duration)
    }

    /// Records the aggregate limits at `now`.
    pub fn record_limits(&mut self, now: SimTime, cpu_cores: f64, mem_mib: f64) {
        self.cpu_limit_series.record(now, cpu_cores);
        self.mem_limit_series.record(now, mem_mib);
    }
}

/// The headline comparisons of Table I / Fig. 4, computed between a
/// baseline run and an Escra run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Comparison {
    /// % decrease in 99.9 % latency from baseline to Escra (+ is better).
    pub latency_decrease_pct: f64,
    /// % increase in throughput from baseline to Escra (+ is better).
    pub throughput_increase_pct: f64,
    /// % reduction in median CPU slack (+ is better).
    pub cpu_slack_p50_reduction_pct: f64,
    /// % reduction in 99 %-ile CPU slack.
    pub cpu_slack_p99_reduction_pct: f64,
    /// % reduction in median memory slack.
    pub mem_slack_p50_reduction_pct: f64,
    /// % reduction in 99 %-ile memory slack.
    pub mem_slack_p99_reduction_pct: f64,
}

fn reduction_pct(baseline: f64, new: f64) -> f64 {
    // A numerically-zero baseline (tight scalers drive p50 slack to
    // ~1e-16 cores) makes the percentage meaningless — report 0 rather
    // than a ±1e17% outlier that would dominate a matrix average.
    if baseline <= 1e-9 {
        0.0
    } else {
        (baseline - new) / baseline * 100.0
    }
}

impl Comparison {
    /// Compares `baseline` against `escra`.
    pub fn between(baseline: &RunMetrics, escra: &RunMetrics) -> Comparison {
        Comparison {
            latency_decrease_pct: reduction_pct(baseline.latency.p(99.9), escra.latency.p(99.9)),
            throughput_increase_pct: if baseline.throughput() > 0.0 {
                (escra.throughput() - baseline.throughput()) / baseline.throughput() * 100.0
            } else {
                0.0
            },
            cpu_slack_p50_reduction_pct: reduction_pct(
                baseline.slack.cpu_p(50.0),
                escra.slack.cpu_p(50.0),
            ),
            cpu_slack_p99_reduction_pct: reduction_pct(
                baseline.slack.cpu_p(99.0),
                escra.slack.cpu_p(99.0),
            ),
            mem_slack_p50_reduction_pct: reduction_pct(
                baseline.slack.mem_p(50.0),
                escra.slack.mem_p(50.0),
            ),
            mem_slack_p99_reduction_pct: reduction_pct(
                baseline.slack.mem_p(99.0),
                escra.slack.mem_p(99.0),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles_and_throughput() {
        let mut l = LatencyRecorder::new();
        for i in 1..=100 {
            l.record_success(SimDuration::from_millis(i));
        }
        l.record_failure();
        assert_eq!(l.successes(), 100);
        assert_eq!(l.failures(), 1);
        let p50 = l.p(50.0);
        assert!((p50 - 50.0).abs() < 2.0, "p50 {p50}");
        assert!((l.throughput(SimDuration::from_secs(10)) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn slack_recorder_percentiles() {
        let mut s = SlackRecorder::new();
        for i in 0..100 {
            s.record(i as f64 / 100.0, i as f64);
        }
        assert_eq!(s.count(), 100);
        assert!(s.cpu_p(99.0) > 0.9);
        assert!(s.mem_p(50.0) >= 45.0 && s.mem_p(50.0) <= 55.0);
        assert!(!s.cpu_cdf().is_empty());
    }

    #[test]
    fn negative_slack_clamped() {
        let mut s = SlackRecorder::new();
        s.record(-1.0, -5.0);
        assert_eq!(s.cpu_p(100.0), 0.0);
    }

    #[test]
    fn comparison_directions() {
        let mut base = RunMetrics::new("static");
        let mut escra = RunMetrics::new("escra");
        base.duration = SimDuration::from_secs(10);
        escra.duration = SimDuration::from_secs(10);
        for _ in 0..100 {
            base.latency.record_success(SimDuration::from_millis(200));
            escra.latency.record_success(SimDuration::from_millis(100));
            escra.latency.record_success(SimDuration::from_millis(100));
            base.slack.record(2.0, 200.0);
            escra.slack.record(0.2, 50.0);
        }
        let c = Comparison::between(&base, &escra);
        assert!(c.latency_decrease_pct > 45.0);
        assert!(c.throughput_increase_pct > 95.0);
        assert!(c.cpu_slack_p50_reduction_pct > 85.0);
        assert!(c.mem_slack_p50_reduction_pct > 70.0);
    }

    #[test]
    fn run_metrics_limits_series() {
        let mut m = RunMetrics::new("escra");
        m.record_limits(SimTime::from_secs(0), 4.0, 1024.0);
        m.record_limits(SimTime::from_secs(1), 3.0, 900.0);
        assert_eq!(m.cpu_limit_series.len(), 2);
        assert_eq!(m.mem_limit_series.last(), Some(900.0));
    }
}
