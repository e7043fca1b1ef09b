//! # escra-metrics
//!
//! Measurement and reporting for the Escra reproduction:
//!
//! * [`recorders`] — the paper's metrics (§VI-A): 99.9 %-ile end-to-end
//!   latency, throughput in successful req/s, absolute CPU/memory slack
//!   distributions, aggregate-limit time series, and the Table I / Fig. 4
//!   [`recorders::Comparison`] between a baseline and Escra;
//! * [`report`] — aligned text tables, CDF dumps and JSON export used by
//!   every figure/table binary in `escra-bench`;
//! * [`trace`] — zero-allocation per-decision audit trail: the
//!   [`trace::TraceSink`] trait (with the compile-to-nothing
//!   [`trace::NoopSink`]), the ring-buffer [`trace::TraceRecorder`], and
//!   the deterministic multi-recorder merge/render used by `trace_dump`;
//! * [`serverless`] — serverless-style statistics for the trace-driven
//!   scenarios: cold starts and their latency, wasted resource-time,
//!   and absolute execution/total slowdown distributions;
//! * [`cost`] — the cost model: resource-seconds × configurable unit
//!   prices plus an OOM-kill penalty, so every comparison can also be
//!   stated in normalized dollars (the cost-efficiency column);
//! * [`expo`] — Prometheus-style text exposition and JSON snapshots of
//!   controller counters and decision-latency histograms;
//! * [`fingerprint`] — canonical FNV-1a state/trace fingerprints used by
//!   the `escra-mc` model checker's visited set and replay witnesses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cost;
pub mod expo;
pub mod fingerprint;
pub mod recorders;
pub mod report;
pub mod serverless;
pub mod trace;

pub use cost::{CostBreakdown, CostModel};
pub use expo::{ExpoSnapshot, HistogramSummary, NamedCounter, PromText};
pub use fingerprint::{fingerprint128, trace_fingerprint, Fingerprint, StateHash};
pub use recorders::{Comparison, LatencyRecorder, RunMetrics, SlackRecorder};
pub use report::{cdf_lines, downsample_cdf, to_json, Table};
pub use serverless::ServerlessStats;
pub use trace::{
    grant_latency_histogram, kind_counts, merge_events, render_line, render_merged, NoopSink,
    TraceEvent, TraceEventKind, TraceRecorder, TraceSink,
};
