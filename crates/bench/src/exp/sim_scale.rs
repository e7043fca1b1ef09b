//! Simulator-core gate: the 10k-node **scale smoke**.
//!
//! A synthetic 10 000-node cluster hosting 12 000 containers under
//! Escra, driven on the event heap for millions of container-periods.
//! Wall-time and throughput (container-periods/s, heap events/s) go to
//! `BENCH_sim.json` with a manifest of who measured them (git rev,
//! rustc, CPU model, threads); `--record` commits the numbers as the
//! baseline and `--check` fails on a >2× throughput regression
//! (generous, because shared CI hosts are noisy) or when the run pops
//! more than [`MAX_HEAP_EVENTS_PER_CP`] heap events per container-period
//! (exact, host-independent: report timers are per cohort, not per node).
//!
//! `--smoke` shortens the scale run (still ≥ 1M container-periods).
//! The run also prints where its event loop's wall time went, phase by
//! phase ([`escra_harness::run_phased`]).

use escra_bench::{fail, manifest_json, write_json, Args, Baseline, SEED};
use escra_harness::{MicroSimConfig, Phase, PhaseTimes, Policy};
use escra_metrics::Table;
use escra_simcore::time::SimDuration;
use escra_workloads::{MicroserviceApp, RequestClass, ServiceTier, WorkloadKind};
use std::time::Instant;

/// Committed baseline written by `--record`, validated by `--check`.
pub const BASELINE: Baseline = Baseline {
    file: "BENCH_sim.json",
    keys: &["container_periods_per_sec"],
};

/// Scale-run cluster size (the ISSUE's 10k-node target).
const SCALE_NODES: usize = 10_000;
/// Replicas per tier in the synthetic scale app (2 tiers).
const SCALE_REPLICAS: usize = 6_000;

/// `--check` ceiling on heap events per container-period. The aligned
/// scale run pops one report event a round plus the timeout and
/// background timers, ≈ 0.012; one report timer per node made it 0.85.
const MAX_HEAP_EVENTS_PER_CP: f64 = 0.05;

/// A synthetic two-tier application sized for the scale run. Tier
/// parameters mirror Teastore-class services; background chains are
/// thinned to one event per 10 s per container so the heap carries a
/// realistic (not pathological) timer load at 12k containers.
fn scale_app() -> MicroserviceApp {
    let tier = |name: &str, cpu_per_req_ms: f64| ServiceTier {
        name: name.into(),
        replicas: SCALE_REPLICAS,
        cpu_per_req_ms,
        cpu_cv: 0.3,
        mem_base_mib: 48,
        mem_per_inflight_kib: 256,
        mem_cache_mib: 64,
        parallelism: 8.0,
        startup_cpu_cores: 0.5,
        bg_work_ms: 40.0,
        bg_interval_s: 10.0,
    };
    let containers = (2 * SCALE_REPLICAS) as f64;
    MicroserviceApp {
        name: "scale-synthetic".into(),
        tiers: vec![tier("edge", 4.0), tier("backend", 8.0)],
        classes: vec![RequestClass {
            name: "get".into(),
            weight: 1.0,
            path: vec![0, 1],
        }],
        global_cpu_cores: containers * 2.0,
        global_mem_mib: (2 * SCALE_REPLICAS) as u64 * 256,
    }
}

fn scale_cfg(duration_secs: u64) -> MicroSimConfig {
    let mut cfg = MicroSimConfig::new(
        scale_app(),
        WorkloadKind::Fixed { rps: 400.0 },
        Policy::escra_default(),
        SEED,
    )
    .with_duration(SimDuration::from_secs(duration_secs));
    cfg.worker_nodes = SCALE_NODES;
    cfg.node_cores = 4;
    cfg
}

pub fn run(args: &Args) {
    let duration_secs = if args.smoke { 10 } else { 50 };
    let cfg = scale_cfg(duration_secs);
    let containers = cfg.app.container_count() as u64;
    let start = Instant::now();
    let (out, phases) = escra_harness::run_phased(&cfg);
    let wall = start.elapsed().as_secs_f64();

    let container_periods = out.sim.rounds * containers;
    let cp_rate = container_periods as f64 / wall;
    let ev_rate = out.sim.heap_events as f64 / wall;
    let ev_per_cp = out.sim.heap_events as f64 / container_periods as f64;
    assert!(
        container_periods >= 1_000_000,
        "scale run too small: {container_periods} container-periods"
    );
    let served = out.metrics.latency.successes();
    assert!(served > 0, "scale run served no requests");

    let rows = [
        ("nodes", format!("{SCALE_NODES}")),
        ("containers", format!("{containers}")),
        ("simulated", format!("{duration_secs}s (+10s warm-up)")),
        ("rounds", format!("{}", out.sim.rounds)),
        ("container-periods", format!("{container_periods}")),
        ("heap events", format!("{}", out.sim.heap_events)),
        ("heap events/container-period", format!("{ev_per_cp:.4}")),
        ("background jobs", format!("{}", out.sim.bg_jobs)),
        ("requests served", format!("{served}")),
        ("wall time", format!("{wall:.2}s")),
        ("container-periods/s", format!("{cp_rate:.0}")),
        ("heap events/s", format!("{ev_rate:.0}")),
    ];
    let mut table = Table::new(vec!["metric", "value"]);
    for (metric, value) in rows {
        table.row(vec![metric.into(), value]);
    }
    println!("Event-heap scale run ({SCALE_NODES} nodes, host-clock)");
    println!("{}", table.render());
    println!("Where the event loop's wall time went (host-clock)");
    println!("{}", phase_table(&phases, container_periods).render());

    let json = format!(
        "{{\n  \"manifest\": {},\n  \
         \"nodes\": {SCALE_NODES},\n  \
         \"containers\": {containers},\n  \
         \"rounds\": {},\n  \
         \"container_periods\": {container_periods},\n  \
         \"heap_events\": {},\n  \
         \"wall_secs\": {wall:.3},\n  \
         \"container_periods_per_sec\": {cp_rate:.0},\n  \
         \"heap_events_per_sec\": {ev_rate:.0}\n}}\n",
        manifest_json(),
        out.sim.rounds,
        out.sim.heap_events,
    );
    let path = write_json("sim_scale", &json);
    println!("numbers written to {}", path.display());

    if args.record {
        BASELINE.record(&json);
    }
    if args.check {
        let committed = BASELINE.load().unwrap_or_else(|e| fail(&e));
        committed.gate("container_periods_per_sec", 0.5, cp_rate);
        println!(
            "check: {ev_per_cp:.4} heap events per container-period \
             (ceiling {MAX_HEAP_EVENTS_PER_CP})"
        );
        if ev_per_cp > MAX_HEAP_EVENTS_PER_CP {
            fail(&format!(
                "{ev_per_cp:.4} heap events per container-period > \
                 {MAX_HEAP_EVENTS_PER_CP}: aligned reports are back on per-node timers"
            ));
        }
        println!("check: OK");
    }
}

/// One row per event-loop phase: spans, wall seconds, share of the loop
/// and ns per container-period, then what no span covers (heap pops and
/// dispatch between the phases).
fn phase_table(phases: &PhaseTimes, container_periods: u64) -> Table {
    let mut table = Table::new(vec!["phase", "calls", "wall s", "share", "ns/cp"]);
    let mut row = |name: &str, calls: String, secs: f64| {
        table.row(vec![
            name.into(),
            calls,
            format!("{secs:.3}"),
            format!("{:.1} %", 100.0 * secs / phases.loop_secs()),
            format!("{:.1}", secs * 1e9 / container_periods as f64),
        ]);
    };
    for phase in Phase::ALL {
        row(
            phase.name(),
            phases.calls(phase).to_string(),
            phases.secs(phase),
        );
    }
    let spans: f64 = Phase::ALL.iter().map(|&p| phases.secs(p)).sum();
    row("heap + dispatch", "-".into(), phases.loop_secs() - spans);
    row("event loop", "-".into(), phases.loop_secs());
    table
}
