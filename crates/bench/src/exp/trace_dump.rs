//! Decision-trace exposition (§VI observability).
//!
//! Runs one traced `microsim` cell — Teastore under the paper's burst
//! workload, Escra, at [`SEED`] — on a faulty control plane: 5 %
//! telemetry loss, 3 % duplicates, 2 % × 200 ms delay spikes, and node 1
//! partitioned from the Controller from 10 s to 15 s. The Controller,
//! every Agent and the fault injector record into [`TraceRecorder`]s
//! ([`run_traced`]), and the run writes three artifacts under
//! `target/escra-results/`:
//!
//! * `trace_dump.trace` — the merged, canonically ordered decision
//!   trace (one line per event);
//! * `trace_dump.prom`  — Prometheus text exposition of the event
//!   counters and the trap→grant latency summary;
//! * `trace_dump.json`  — the same numbers as an [`ExpoSnapshot`].
//!
//! The recorders' event streams are merged on `(time, actor)` rather
//! than recorder order, so the `.trace` file is a pure function of the
//! seed.

use escra_bench::{write_json, Args, SEED};
use escra_cluster::NodeId;
use escra_core::TraceRecorder;
use escra_harness::{controller_addr, node_addr, run_traced, MicroSimConfig, Policy};
use escra_metrics::trace::{kind_counts, merge_events, render_merged};
use escra_metrics::{
    grant_latency_histogram, ExpoSnapshot, HistogramSummary, NamedCounter, PromText,
};
use escra_net::FaultPlan;
use escra_simcore::time::{SimDuration, SimTime};
use escra_workloads::{teastore, WorkloadKind};

pub fn run(_: &Args) {
    let plan = FaultPlan::none()
        .with_loss(0.05)
        .with_duplicates(0.03)
        .with_delay_spikes(0.02, SimDuration::from_millis(200))
        .with_partition(
            controller_addr(),
            node_addr(NodeId::new(1)),
            SimTime::from_secs(10),
            SimTime::from_secs(15),
        );
    let burst = WorkloadKind::paper_burst();
    let cfg = MicroSimConfig::new(teastore(), burst, Policy::escra_default(), SEED);
    let (_, recorders) = run_traced(&cfg.with_faults(plan));

    let refs: Vec<&TraceRecorder> = recorders.iter().collect();
    let dropped: u64 = recorders.iter().map(|r| r.dropped()).sum();
    let emitted: u64 = recorders.iter().map(|r| r.emitted()).sum();
    // A wrapped ring drops the oldest events: the dump would no longer
    // be the whole run.
    assert_eq!(dropped, 0, "a trace recorder wrapped");

    let trace = render_merged(&refs);
    let events = merge_events(&refs);
    let counts = kind_counts(&events);
    assert!(
        counts.iter().any(|(l, _)| *l == "grant_issued"),
        "the run must exercise the OOM-grant path"
    );
    let latency = grant_latency_histogram(&events);

    let mut prom = PromText::new();
    for (label, n) in &counts {
        prom.counter(
            &format!("escra_trace_{label}_total"),
            "Trace events of this kind in the run.",
            *n,
        );
    }
    prom.summary(
        "escra_grant_latency_ms",
        "OOM trap to grant decision latency.",
        &latency,
    );

    let snapshot = ExpoSnapshot {
        counters: counts
            .iter()
            .map(|(l, n)| NamedCounter::new(format!("trace_{l}"), *n))
            .collect(),
        histograms: vec![HistogramSummary::of("grant_latency_ms", &latency)],
        trace_events: emitted,
        trace_dropped: dropped,
    };

    let stem = "trace_dump";
    let json = write_json(stem, &snapshot.to_json());
    let dir = json.parent().expect("results dir");
    std::fs::write(dir.join(format!("{stem}.trace")), &trace).expect("write trace");
    std::fs::write(dir.join(format!("{stem}.prom")), prom.finish()).expect("write prom");
    eprintln!(
        "{stem}: {} events ({} emitted), wrote {}/{{{stem}.trace,.prom,.json}}",
        trace.lines().count(),
        emitted,
        dir.display()
    );
}
