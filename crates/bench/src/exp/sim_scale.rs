//! Simulator-core gate: the 10k-node **scale smoke**.
//!
//! A synthetic 10 000-node cluster hosting 12 000 containers under
//! Escra, driven on the event heap for millions of container-periods.
//! Wall-time and throughput (container-periods/s, heap events/s) go to
//! `target/escra-results/sim_scale.json`; the run also prints where its
//! event loop's wall time went, phase by phase
//! ([`escra_harness::run_phased`]).
//!
//! `BENCH_sim.json` holds one block per run length under one manifest
//! of who measured them (git rev, rustc, CPU model, threads), and
//! `--check` compares a run only with the block of its own length:
//!
//! * `full` (50 s simulated, one run): the rate and the phase table;
//!   `--check` fails below half the recorded rate.
//! * `smoke` (`--smoke`, 10 s simulated): one smoke measurement is the
//!   fastest of [`SMOKE_BEST_OF`] runs, so a noise burst on a shared host
//!   has to hit all of them to read low. The block holds
//!   [`SMOKE_RECORD_RUNS`] measurements and their minimum; `--check`
//!   fails below [`SMOKE_FLOOR_FRAC`] of that minimum.
//!
//! `--record` (full length) writes both blocks: its own run, then the
//! smoke measurements. Both lengths also fail a run that pops more than
//! [`MAX_HEAP_EVENTS_PER_CP`] heap events per container-period (exact,
//! host-independent: report timers are per cohort, not per node).

use escra_bench::{fail, manifest_json, write_json, Args, Baseline, SEED};
use escra_harness::{MicroSimConfig, MicroSimOutput, Phase, PhaseTimes, Policy};
use escra_metrics::Table;
use escra_simcore::time::SimDuration;
use escra_workloads::{MicroserviceApp, RequestClass, ServiceTier, WorkloadKind};
use std::time::Instant;

/// Committed baseline written by `--record`, validated by `--check`.
pub const BASELINE: Baseline = Baseline {
    file: "BENCH_sim.json",
    keys: &[
        "container_periods_per_sec",
        "smoke_min_container_periods_per_sec",
    ],
};

/// Runs in one smoke measurement; the fastest one counts.
const SMOKE_BEST_OF: usize = 5;
/// Smoke measurements `--record` takes; their minimum is the committed
/// `smoke_min_container_periods_per_sec`.
const SMOKE_RECORD_RUNS: usize = 10;
/// `--smoke --check` floor as a fraction of the committed smoke minimum.
/// Two bounds set it. It leaves room for a measurement 8 % below every
/// recorded one. And it has to stay above half the *fastest* recorded
/// measurement, so that an event loop twice as slow fails even in a fast
/// stretch of the host. On a shared 2-vCPU Xeon the recorded
/// measurements span 1.6× (8.7–13.7 M container-periods/s), which
/// leaves little room between the two bounds.
const SMOKE_FLOOR_FRAC: f64 = 0.92;
/// `--check` floor of a full-length run, as a fraction of the committed
/// `full` rate.
const FULL_FLOOR_FRAC: f64 = 0.5;

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

/// The fastest of `runs` runs of `cfg`: its output, phase times and wall
/// seconds.
fn fastest(cfg: &MicroSimConfig, runs: usize) -> (MicroSimOutput, PhaseTimes, f64) {
    let timed = (0..runs).map(|_| {
        let start = Instant::now();
        let (out, phases) = escra_harness::run_phased(cfg);
        (out, phases, start.elapsed().as_secs_f64())
    });
    timed
        .min_by(|a, b| a.2.total_cmp(&b.2))
        .expect("at least one run")
}

pub fn run(args: &Args) {
    let duration_secs = if args.smoke { 10 } else { 50 };
    let cfg = scale_cfg(duration_secs);
    let containers = cfg.app.container_count() as u64;
    let best_of = if args.smoke { SMOKE_BEST_OF } else { 1 };
    let (out, phases, wall) = fastest(&cfg, best_of);

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
        ("wall time", format!("{wall:.2}s (fastest of {best_of})")),
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

    let members = [
        format!("\"nodes\": {SCALE_NODES}"),
        format!("\"containers\": {containers}"),
        format!("\"rounds\": {}", out.sim.rounds),
        format!("\"container_periods\": {container_periods}"),
        format!("\"heap_events\": {}", out.sim.heap_events),
        format!("\"wall_secs\": {wall:.3}"),
        format!("\"container_periods_per_sec\": {cp_rate:.0}"),
        format!("\"heap_events_per_sec\": {ev_rate:.0}"),
        format!(
            "\"phase_ns_per_cp\": {}",
            phase_json(&phases, container_periods)
        ),
    ];
    let json = format!(
        "{{\n  \"manifest\": {},\n  {}\n}}\n",
        manifest_json(),
        members.join(",\n  ")
    );
    let path = write_json("sim_scale", &json);
    println!("numbers written to {}", path.display());

    if args.record {
        if args.smoke {
            fail("record from a full-length run: it takes the smoke measurements too");
        }
        let smoke = smoke_block(containers);
        BASELINE.record(&format!(
            "{{\n  \"manifest\": {},\n  \"full\": {{\n    {}\n  }},\n  \"smoke\": {smoke}\n}}\n",
            manifest_json(),
            members.join(",\n    ")
        ));
    }
    if args.check {
        let committed = BASELINE.load().unwrap_or_else(|e| fail(&e));
        if args.smoke {
            committed.gate(
                "smoke_min_container_periods_per_sec",
                SMOKE_FLOOR_FRAC,
                cp_rate,
            );
        } else {
            committed.gate("container_periods_per_sec", FULL_FLOOR_FRAC, cp_rate);
        }
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

/// [`SMOKE_RECORD_RUNS`] smoke measurements of the scale app's
/// `containers`, as the committed `smoke` block.
fn smoke_block(containers: u64) -> String {
    let cfg = scale_cfg(10);
    let rates: Vec<f64> = (1..=SMOKE_RECORD_RUNS)
        .map(|i| {
            let (out, _, wall) = fastest(&cfg, SMOKE_BEST_OF);
            let rate = (out.sim.rounds * containers) as f64 / wall;
            println!("smoke measurement {i}: {rate:.0} container-periods/s");
            rate
        })
        .collect();
    let min = rates.iter().copied().fold(f64::INFINITY, f64::min);
    let listed: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    format!(
        "{{\"best_of\": {SMOKE_BEST_OF}, \"measurements\": [{}], \
         \"smoke_min_container_periods_per_sec\": {min:.0}}}",
        listed.join(", ")
    )
}

/// `(name, calls, wall seconds)` per event-loop phase, then what no
/// span covers (heap pops and dispatch between the phases) and the whole
/// loop, which have no call count.
fn phase_rows(phases: &PhaseTimes) -> Vec<(&'static str, Option<u64>, f64)> {
    let mut rows: Vec<_> = Phase::ALL
        .iter()
        .map(|&p| (p.name(), Some(phases.calls(p)), phases.secs(p)))
        .collect();
    let spans: f64 = rows.iter().map(|&(_, _, secs)| secs).sum();
    rows.push(("heap + dispatch", None, phases.loop_secs() - spans));
    rows.push(("event loop", None, phases.loop_secs()));
    rows
}

/// One row per [`phase_rows`] entry: spans, wall seconds, share of the
/// loop and ns per container-period.
fn phase_table(phases: &PhaseTimes, container_periods: u64) -> Table {
    let mut table = Table::new(vec!["phase", "calls", "wall s", "share", "ns/cp"]);
    for (name, calls, secs) in phase_rows(phases) {
        table.row(vec![
            name.into(),
            calls.map_or("-".into(), |c| c.to_string()),
            format!("{secs:.3}"),
            format!("{:.1} %", 100.0 * secs / phases.loop_secs()),
            format!("{:.1}", secs * 1e9 / container_periods as f64),
        ]);
    }
    table
}

/// The ns per container-period of every [`phase_rows`] entry, as one
/// JSON object.
fn phase_json(phases: &PhaseTimes, container_periods: u64) -> String {
    let members: Vec<String> = phase_rows(phases)
        .into_iter()
        .map(|(name, _, secs)| format!("{name:?}: {:.1}", secs * 1e9 / container_periods as f64))
        .collect();
    format!("{{{}}}", members.join(", "))
}
