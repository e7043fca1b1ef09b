//! Robustness sweep: reruns the §VI-B Escra-vs-baselines comparison
//! (Teastore × burst) with control-plane faults injected — message loss
//! from 0 to 10 % and a 2-second Controller↔node partition — and records
//! OOM kills, tail latency and the grant-recovery counters at each fault
//! level.
//!
//! The claim under test: Escra's event-driven control plane degrades
//! gracefully. Lost telemetry only staleness-extends the current limits
//! (the Agent-side safety valve holds last-known-good values), and a lost
//! OOM grant is recovered by the Controller's retry timer or by
//! reconciliation on the container's next OOM event — so containers are
//! still never OOM-killed.

use escra_bench::{write_json, Args, RUN_SECS, SEED};
use escra_harness::{controller_addr, node_addr, MicroSimConfig, Policy};
use escra_metrics::{to_json, Table};
use escra_net::FaultPlan;
use escra_simcore::time::{SimDuration, SimTime};
use escra_workloads::{teastore, WorkloadKind};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    loss_pct: f64,
    partition: bool,
    oom_kills: u64,
    p99_ms: f64,
    p999_ms: f64,
    successes: u64,
    failures: u64,
    grant_retries: u64,
    grant_reconciles: u64,
    grants_abandoned: u64,
    faults_dropped: u64,
    faults_partitioned: u64,
}

/// One 2 s partition of node 1 from the Controller, mid-run.
fn partition_plan(plan: FaultPlan) -> FaultPlan {
    plan.with_partition(
        controller_addr(),
        node_addr(escra_cluster::NodeId::new(1)),
        SimTime::from_secs(30),
        SimTime::from_secs(32),
    )
}

pub fn run(_: &Args) {
    let mut table = Table::new(vec![
        "loss%",
        "partition",
        "OOM kills",
        "p99 (ms)",
        "p99.9 (ms)",
        "ok",
        "failed",
        "retries",
        "reconciles",
        "abandoned",
        "dropped",
        "blackholed",
    ]);
    let mut rows = Vec::new();
    for &loss in &[0.0f64, 0.01, 0.05, 0.10] {
        for &partition in &[false, true] {
            let mut plan = FaultPlan::none().with_loss(loss);
            if partition {
                plan = partition_plan(plan);
            }
            let cfg = MicroSimConfig::new(
                teastore(),
                WorkloadKind::paper_burst(),
                Policy::escra_default(),
                SEED,
            )
            .with_duration(SimDuration::from_secs(RUN_SECS))
            .with_faults(plan);
            let out = escra_harness::run(&cfg);
            let stats = out.controller_stats.expect("escra stats");
            let m = &out.metrics;
            let row = Row {
                loss_pct: loss * 100.0,
                partition,
                oom_kills: m.oom_kills,
                p99_ms: m.latency.p(99.0),
                p999_ms: m.latency.p(99.9),
                successes: m.latency.successes(),
                failures: m.latency.failures(),
                grant_retries: stats.grant_retries,
                grant_reconciles: stats.grant_reconciles,
                grants_abandoned: stats.grants_abandoned,
                faults_dropped: out.fault_stats.map(|f| f.dropped).unwrap_or(0),
                faults_partitioned: out.fault_stats.map(|f| f.partitioned).unwrap_or(0),
            };
            table.row(vec![
                format!("{:.0}", row.loss_pct),
                if partition { "2s".into() } else { "-".into() },
                row.oom_kills.to_string(),
                format!("{:.1}", row.p99_ms),
                format!("{:.1}", row.p999_ms),
                row.successes.to_string(),
                row.failures.to_string(),
                row.grant_retries.to_string(),
                row.grant_reconciles.to_string(),
                row.grants_abandoned.to_string(),
                row.faults_dropped.to_string(),
                row.faults_partitioned.to_string(),
            ]);
            rows.push(row);
        }
    }
    println!("Robustness sweep — Escra (Teastore × burst) under control-plane faults");
    println!("(paper §VI-E reports zero Escra OOM kills; the sweep checks that holds");
    println!(" when the control plane itself loses, delays or partitions traffic)\n");
    println!("{}", table.render());
    let path = write_json("robustness_sweep", &to_json(&rows));
    println!("rows written to {}", path.display());
}
