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

use escra_bench::{write_json, SEED};
use escra_harness::{run, MicroSimConfig, Policy};
use escra_metrics::Table;
use escra_simcore::time::SimDuration;
use escra_workloads::{MicroserviceApp, RequestClass, ServiceTier, WorkloadKind};
use std::time::Instant;

/// Committed baseline written by `--record`, validated by `--check`.
const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");

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

/// Minimal JSON number extraction: the vendored serde_json shim only
/// serializes, so the committed baseline is read back by string search.
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\"");
    let at = json.find(&pat)?;
    let rest = &json[at + pat.len()..];
    let rest = &rest[rest.find(':')? + 1..];
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// First line of `cmd args…`'s stdout, or "unknown".
fn first_line_of(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Who measured the numbers, as a JSON object: the commit the tree was
/// at (`-dirty` with uncommitted changes), the compiler, the CPU and the
/// threads the run used (the driver is single-threaded).
fn manifest_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"git_rev\": {:?}, \"rustc\": {:?}, \"cpu\": {:?}, \"threads\": 1}}",
        first_line_of("git", &["describe", "--always", "--dirty", "--abbrev=12"]),
        first_line_of("rustc", &["--version"]),
        cpu,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let record = args.iter().any(|a| a == "--record");
    for a in &args {
        assert!(
            matches!(a.as_str(), "--smoke" | "--check" | "--record"),
            "unknown flag {a:?} (expected --smoke, --check, --record)"
        );
    }

    let duration_secs = if smoke { 10 } else { 50 };
    let cfg = scale_cfg(duration_secs);
    let containers = cfg.app.container_count() as u64;
    let start = Instant::now();
    let out = run(&cfg);
    let wall = start.elapsed().as_secs_f64();

    let container_periods = out.sim.rounds * containers;
    let cp_rate = container_periods as f64 / wall;
    let ev_rate = out.sim.heap_events as f64 / wall;
    let events_per_cp = out.sim.heap_events as f64 / container_periods as f64;
    assert!(
        container_periods >= 1_000_000,
        "scale run too small: {container_periods} container-periods"
    );
    assert!(
        out.metrics.latency.successes() > 0,
        "scale run served no requests"
    );

    let mut table = Table::new(vec!["metric", "value"]);
    table.row(vec!["nodes".into(), format!("{SCALE_NODES}")]);
    table.row(vec!["containers".into(), format!("{containers}")]);
    table.row(vec![
        "simulated".into(),
        format!("{duration_secs}s (+10s warm-up)"),
    ]);
    table.row(vec!["rounds".into(), format!("{}", out.sim.rounds)]);
    table.row(vec![
        "container-periods".into(),
        format!("{container_periods}"),
    ]);
    table.row(vec![
        "heap events".into(),
        format!("{}", out.sim.heap_events),
    ]);
    table.row(vec![
        "heap events/container-period".into(),
        format!("{events_per_cp:.4}"),
    ]);
    table.row(vec![
        "background jobs".into(),
        format!("{}", out.sim.bg_jobs),
    ]);
    table.row(vec![
        "requests served".into(),
        format!("{}", out.metrics.latency.successes()),
    ]);
    table.row(vec!["wall time".into(), format!("{wall:.2}s")]);
    table.row(vec!["container-periods/s".into(), format!("{cp_rate:.0}")]);
    table.row(vec!["heap events/s".into(), format!("{ev_rate:.0}")]);
    println!("Event-heap scale run ({SCALE_NODES} nodes, host-clock)");
    println!("{}", table.render());

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

    if record {
        std::fs::write(BASELINE_PATH, &json).expect("write committed baseline");
        println!("committed baseline recorded to {BASELINE_PATH}");
    }
    if check {
        let committed = std::fs::read_to_string(BASELINE_PATH)
            .unwrap_or_else(|e| panic!("read {BASELINE_PATH}: {e} (run with --record first)"));
        let committed_rate = extract_number(&committed, "container_periods_per_sec")
            .expect("baseline has container_periods_per_sec");
        println!(
            "check: {cp_rate:.0} container-periods/s vs committed {committed_rate:.0} \
             (floor {:.0})",
            0.5 * committed_rate
        );
        if cp_rate < 0.5 * committed_rate {
            eprintln!(
                "FAIL: scale-run throughput regressed >2x vs committed baseline \
                 ({cp_rate:.0} < 0.5 * {committed_rate:.0})"
            );
            std::process::exit(1);
        }
        println!(
            "check: {events_per_cp:.4} heap events per container-period \
             (ceiling {MAX_HEAP_EVENTS_PER_CP})"
        );
        if events_per_cp > MAX_HEAP_EVENTS_PER_CP {
            eprintln!(
                "FAIL: {events_per_cp:.4} heap events per container-period > \
                 {MAX_HEAP_EVENTS_PER_CP}: aligned reports are back on per-node timers"
            );
            std::process::exit(1);
        }
        println!("check: OK");
    }
}
