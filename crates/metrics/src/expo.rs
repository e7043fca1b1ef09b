//! Exposition of control-plane observability: Prometheus-style text
//! rendering and a JSON snapshot shape.
//!
//! [`PromText`] renders counters, gauges and [`LogHistogram`] summaries
//! in the Prometheus text exposition format (`# HELP` / `# TYPE` +
//! samples), which a scrape endpoint could serve verbatim; here the
//! `trace_dump` bin writes it next to the decision trace.
//! [`ExpoSnapshot`] is the JSON twin: the same numbers as serializable
//! structs, written through [`crate::report::to_json`].

use escra_simcore::histogram::LogHistogram;
use serde::Serialize;
use std::fmt::Write as _;

/// Incremental Prometheus text-format builder.
#[derive(Debug, Clone, Default)]
pub struct PromText {
    out: String,
}

impl PromText {
    /// Starts an empty exposition.
    pub fn new() -> Self {
        PromText::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Adds a monotonic counter sample.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// Adds a gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, help, "gauge");
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// Adds a histogram as a Prometheus `summary`: φ-quantiles plus
    /// `_sum` / `_count` (sum is reconstructed as `mean × count`, exact
    /// to the histogram's bucket resolution).
    pub fn summary(&mut self, name: &str, help: &str, hist: &LogHistogram) {
        self.header(name, help, "summary");
        for q in [0.5, 0.9, 0.99] {
            let v = if hist.is_empty() {
                0.0
            } else {
                hist.percentile(q * 100.0)
            };
            let _ = writeln!(self.out, "{name}{{quantile=\"{q}\"}} {v}");
        }
        let sum = if hist.is_empty() {
            0.0
        } else {
            hist.mean() * hist.count() as f64
        };
        let _ = writeln!(self.out, "{name}_sum {sum}");
        let _ = writeln!(self.out, "{name}_count {}", hist.count());
    }

    /// The rendered exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// One named counter in a JSON snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct NamedCounter {
    /// Metric name.
    pub name: String,
    /// Counter value.
    pub value: u64,
}

impl NamedCounter {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, value: u64) -> Self {
        NamedCounter {
            name: name.into(),
            value,
        }
    }
}

/// A compact serializable view of one [`LogHistogram`].
#[derive(Debug, Clone, Serialize)]
pub struct HistogramSummary {
    /// Metric name.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Mean sample value.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl HistogramSummary {
    /// Summarises `hist` under `name`.
    pub fn of(name: impl Into<String>, hist: &LogHistogram) -> Self {
        let empty = hist.is_empty();
        HistogramSummary {
            name: name.into(),
            count: hist.count(),
            mean: if empty { 0.0 } else { hist.mean() },
            p50: if empty { 0.0 } else { hist.percentile(50.0) },
            p99: if empty { 0.0 } else { hist.percentile(99.0) },
        }
    }
}

/// The JSON snapshot of a control plane's observable state:
/// `ControllerStats` counters (flattened to name/value pairs so this
/// crate stays independent of `escra-core`), decision-latency
/// summaries, and trace-recorder health.
#[derive(Debug, Clone, Serialize, Default)]
pub struct ExpoSnapshot {
    /// Controller counters, one entry per stats field.
    pub counters: Vec<NamedCounter>,
    /// Latency / decision histograms.
    pub histograms: Vec<HistogramSummary>,
    /// Events held across all trace recorders.
    pub trace_events: u64,
    /// Events lost to ring-buffer overflow across all recorders.
    pub trace_dropped: u64,
}

impl ExpoSnapshot {
    /// Serialises the snapshot as pretty JSON.
    pub fn to_json(&self) -> String {
        crate::report::to_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_text_counters_and_gauges() {
        let mut p = PromText::new();
        p.counter("escra_mem_grants_total", "Memory grants issued.", 7);
        p.gauge("escra_pool_cores", "Pool CPU limit.", 8.5);
        let text = p.finish();
        assert!(text.contains("# TYPE escra_mem_grants_total counter"));
        assert!(text.contains("escra_mem_grants_total 7"));
        assert!(text.contains("escra_pool_cores 8.5"));
    }

    #[test]
    fn prom_summary_quantiles() {
        let mut h = LogHistogram::new();
        for i in 1..=100 {
            h.record(i as f64);
        }
        let mut p = PromText::new();
        p.summary("escra_grant_latency_ms", "Trap-to-grant latency.", &h);
        let text = p.finish();
        assert!(text.contains("# TYPE escra_grant_latency_ms summary"));
        assert!(text.contains("escra_grant_latency_ms{quantile=\"0.5\"}"));
        assert!(text.contains("escra_grant_latency_ms_count 100"));
    }

    #[test]
    fn prom_summary_of_empty_histogram_is_zeroed() {
        let mut p = PromText::new();
        p.summary("x", "empty", &LogHistogram::new());
        let text = p.finish();
        assert!(text.contains("x{quantile=\"0.5\"} 0"));
        assert!(text.contains("x_count 0"));
    }

    #[test]
    fn snapshot_serialises() {
        let mut h = LogHistogram::new();
        h.record(250.0);
        let snap = ExpoSnapshot {
            counters: vec![NamedCounter::new("mem_grants", 3)],
            histograms: vec![HistogramSummary::of("grant_latency_ms", &h)],
            trace_events: 41,
            trace_dropped: 0,
        };
        let json = snap.to_json();
        assert!(json.contains("\"mem_grants\""));
        assert!(json.contains("\"grant_latency_ms\""));
        assert!(json.contains("\"trace_events\": 41"));
    }
}
