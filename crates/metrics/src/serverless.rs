//! Serverless-style metrics for the trace-driven scenarios: cold
//! starts, wasted resource-time, and absolute execution/total slowdown
//! (the dslab-faas reporting vocabulary), recorded next to the paper's
//! own metrics (slack CDFs, OOM kills, throttle rates).

use escra_simcore::histogram::LogHistogram;
use escra_simcore::time::SimDuration;
use serde::Serialize;

/// Per-run serverless statistics.
///
/// *Wasted resource-time* integrates `limit − usage` over wall-clock
/// time across live pods (core-seconds for CPU, MiB-seconds for
/// memory): the reservation a static invoker holds but never uses.
/// *Absolute execution slowdown* is `execution time − ideal time`
/// (throttle stretch only); *absolute total slowdown* is
/// `arrival-to-completion − ideal time` (adds queueing and cold start).
#[derive(Debug, Clone, Default, Serialize)]
pub struct ServerlessStats {
    /// Completed invocations.
    pub invocations: u64,
    /// Invocations that had to wait for a pod cold start.
    pub cold_starts: u64,
    /// Cold-start latency distribution, in ms.
    cold_start_ms: LogHistogram,
    /// Integrated CPU reservation slack, in core-seconds.
    pub wasted_cpu_core_secs: f64,
    /// Integrated memory reservation slack, in MiB-seconds.
    pub wasted_mem_mib_secs: f64,
    /// Integrated CPU reservation (the limit itself, not its slack), in
    /// core-seconds — what the cost model bills for.
    pub alloc_cpu_core_secs: f64,
    /// Integrated memory reservation, in MiB-seconds.
    pub alloc_mem_mib_secs: f64,
    /// Absolute execution slowdown distribution, in ms.
    abs_exec_slowdown_ms: LogHistogram,
    /// Absolute total slowdown distribution, in ms.
    abs_total_slowdown_ms: LogHistogram,
}

fn as_ms(d: SimDuration) -> f64 {
    d.as_micros() as f64 / 1_000.0
}

impl ServerlessStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        ServerlessStats::default()
    }

    /// Records one cold start with its latency.
    pub fn record_cold_start(&mut self, latency: SimDuration) {
        self.cold_starts += 1;
        self.cold_start_ms.record(as_ms(latency));
    }

    /// Records one completed invocation: `ideal` is the unthrottled
    /// single-core execution time, `exec` the actual execution time and
    /// `total` the arrival-to-completion time (`total ≥ exec ≥ ideal`
    /// up to clamping).
    pub fn record_completion(&mut self, ideal: SimDuration, exec: SimDuration, total: SimDuration) {
        self.invocations += 1;
        self.abs_exec_slowdown_ms
            .record((as_ms(exec) - as_ms(ideal)).max(0.0));
        self.abs_total_slowdown_ms
            .record((as_ms(total) - as_ms(ideal)).max(0.0));
    }

    /// Accumulates wasted resource-time for one accounting interval.
    pub fn record_wasted(&mut self, cpu_core_secs: f64, mem_mib_secs: f64) {
        self.wasted_cpu_core_secs += cpu_core_secs.max(0.0);
        self.wasted_mem_mib_secs += mem_mib_secs.max(0.0);
    }

    /// Accumulates *allocated* (reserved) resource-time for one
    /// accounting interval — the billing integral behind
    /// [`crate::cost::CostModel::serverless_cost`].
    pub fn record_allocated(&mut self, cpu_core_secs: f64, mem_mib_secs: f64) {
        self.alloc_cpu_core_secs += cpu_core_secs.max(0.0);
        self.alloc_mem_mib_secs += mem_mib_secs.max(0.0);
    }

    /// Mean cold-start latency, in ms.
    pub fn cold_start_mean_ms(&self) -> f64 {
        self.cold_start_ms.mean()
    }

    /// Cold-start latency percentile, in ms.
    pub fn cold_start_p(&self, percentile: f64) -> f64 {
        self.cold_start_ms.percentile(percentile)
    }

    /// Fraction of invocations that cold-started.
    pub fn cold_start_rate(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.cold_starts as f64 / self.invocations as f64
        }
    }

    /// Mean absolute execution slowdown, in ms.
    pub fn abs_exec_slowdown_mean_ms(&self) -> f64 {
        self.abs_exec_slowdown_ms.mean()
    }

    /// Absolute execution-slowdown percentile, in ms.
    pub fn abs_exec_slowdown_p(&self, percentile: f64) -> f64 {
        self.abs_exec_slowdown_ms.percentile(percentile)
    }

    /// Mean absolute total slowdown, in ms.
    pub fn abs_total_slowdown_mean_ms(&self) -> f64 {
        self.abs_total_slowdown_ms.mean()
    }

    /// Absolute total-slowdown percentile, in ms.
    pub fn abs_total_slowdown_p(&self, percentile: f64) -> f64 {
        self.abs_total_slowdown_ms.percentile(percentile)
    }

    /// Folds another recorder's samples into this one. Shard reduction
    /// must merge in a fixed (shard-index) order: the wasted-time sums
    /// are floating-point accumulations, exact only for a fixed order.
    pub fn merge(&mut self, other: &ServerlessStats) {
        self.invocations += other.invocations;
        self.cold_starts += other.cold_starts;
        self.cold_start_ms.merge(&other.cold_start_ms);
        self.wasted_cpu_core_secs += other.wasted_cpu_core_secs;
        self.wasted_mem_mib_secs += other.wasted_mem_mib_secs;
        self.alloc_cpu_core_secs += other.alloc_cpu_core_secs;
        self.alloc_mem_mib_secs += other.alloc_mem_mib_secs;
        self.abs_exec_slowdown_ms.merge(&other.abs_exec_slowdown_ms);
        self.abs_total_slowdown_ms
            .merge(&other.abs_total_slowdown_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completions_and_slowdowns() {
        let mut s = ServerlessStats::new();
        s.record_completion(
            SimDuration::from_millis(100),
            SimDuration::from_millis(150),
            SimDuration::from_millis(700),
        );
        s.record_completion(
            SimDuration::from_millis(100),
            SimDuration::from_millis(100),
            SimDuration::from_millis(100),
        );
        assert_eq!(s.invocations, 2);
        // (50 + 0) / 2 and (600 + 0) / 2, up to log-bucket width.
        assert!((s.abs_exec_slowdown_mean_ms() - 25.0).abs() < 2.0);
        assert!((s.abs_total_slowdown_mean_ms() - 300.0).abs() < 12.0);
    }

    #[test]
    fn cold_starts_and_rate() {
        let mut s = ServerlessStats::new();
        s.record_cold_start(SimDuration::from_millis(500));
        s.record_completion(
            SimDuration::from_millis(10),
            SimDuration::from_millis(10),
            SimDuration::from_millis(510),
        );
        s.record_completion(
            SimDuration::from_millis(10),
            SimDuration::from_millis(10),
            SimDuration::from_millis(10),
        );
        assert_eq!(s.cold_starts, 1);
        assert!((s.cold_start_rate() - 0.5).abs() < 1e-12);
        assert!((s.cold_start_mean_ms() - 500.0).abs() < 20.0);
    }

    #[test]
    fn wasted_time_accumulates_and_clamps() {
        let mut s = ServerlessStats::new();
        s.record_wasted(1.5, 256.0);
        s.record_wasted(0.5, 64.0);
        s.record_wasted(-1.0, -1.0); // clamped
        assert_eq!(s.wasted_cpu_core_secs, 2.0);
        assert_eq!(s.wasted_mem_mib_secs, 320.0);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = ServerlessStats::new();
        let mut b = ServerlessStats::new();
        a.record_cold_start(SimDuration::from_millis(400));
        a.record_wasted(1.0, 10.0);
        b.record_cold_start(SimDuration::from_millis(600));
        b.record_wasted(2.0, 20.0);
        b.record_completion(
            SimDuration::from_millis(10),
            SimDuration::from_millis(20),
            SimDuration::from_millis(30),
        );
        a.record_allocated(5.0, 50.0);
        b.record_allocated(7.0, 70.0);
        a.merge(&b);
        assert_eq!(a.cold_starts, 2);
        assert_eq!(a.invocations, 1);
        assert_eq!(a.wasted_cpu_core_secs, 3.0);
        assert_eq!(a.wasted_mem_mib_secs, 30.0);
        assert_eq!(a.alloc_cpu_core_secs, 12.0);
        assert_eq!(a.alloc_mem_mib_secs, 120.0);
        assert!(a.cold_start_mean_ms() > 400.0);
    }
}
