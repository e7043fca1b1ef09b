//! Trace-driven mega-scenario benchmark: tens of thousands of traced
//! serverless apps — one Distributed Container each — across hundreds
//! of nodes, sharded over the deterministic sweep runner.
//!
//! The population is the synthetic Azure-Functions-shaped `mega_mix`
//! (76 % tiny steady apps, 19 % diurnal, 5 % heavy bursty), partitioned
//! round-robin into [`SHARDS`] independent sub-clusters. Each shard runs
//! the [`escra_harness::trace_sim`] driver with columnar telemetry on a
//! jittered report plan; shard results are reduced in shard order, so
//! the merged output is a pure function of `(population, seed)` — the
//! `--serial` flag re-runs the grid serially and asserts the serialized
//! shard summaries are byte-identical to the parallel run.
//!
//! Reported side by side: the paper's metrics (99.9 %-ile latency,
//! CPU/memory slack percentiles, aggregate limits, OOM kills, throttle
//! rate) and the serverless statistics (cold starts and their latency,
//! wasted resource-time, absolute exec/total slowdown).
//!
//! `--record` commits wall-clock throughput to `BENCH_trace.json`;
//! `--check` fails on a >2× regression (generous: CI hosts are noisy)
//! and re-asserts the scale floors (≥ 10 000 apps, ≥ 1M
//! container-periods).

use escra_bench::{assert_byte_identical, fail, write_json, Args, Baseline, SEED};
use escra_core::EscraConfig;
use escra_harness::{
    run_serial, run_sweep, run_trace_sim, scenarios, ReportPlan, TraceSimConfig, TraceSimOutput,
};
use escra_metrics::{to_json, LatencyRecorder, ServerlessStats, SlackRecorder};
use escra_simcore::time::SimTime;
use escra_workloads::{mega_mix, synthetic_trace, TraceWorkload};
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// Committed baseline written by `--record`, validated by `--check`.
pub const BASELINE: Baseline = Baseline {
    file: "BENCH_trace.json",
    keys: &["container_periods_per_sec", "container_periods"],
};

/// Fixed shard count — independent of `--threads`, so the grid (and its
/// seeds) never changes shape with the worker pool.
const SHARDS: usize = 16;

/// The smoke/full population sizes. Both clear the ISSUE floors
/// (≥ 10 000 traced apps, ≥ 1M container-periods).
const SMOKE_APPS: usize = 10_000;
const SMOKE_MINUTES: usize = 2;
const SMOKE_NODES: usize = 192;
const FULL_APPS: usize = 20_000;
const FULL_MINUTES: usize = 6;
const FULL_NODES: usize = 384;

/// One shard's serialized summary — the byte-identity currency of the
/// `--serial` gate (no wall times, pure simulation output).
#[derive(Debug, Clone, Serialize)]
struct ShardSummary {
    shard: usize,
    apps: usize,
    invocations: u64,
    cold_starts: u64,
    cold_start_mean_ms: f64,
    wasted_cpu_core_secs: f64,
    wasted_mem_mib_secs: f64,
    exec_slowdown_mean_ms: f64,
    total_slowdown_mean_ms: f64,
    latency_p999_ms: f64,
    cpu_slack_p99_cores: f64,
    mem_slack_p99_mib: f64,
    cpu_limit_mean_cores: f64,
    mem_limit_mean_mib: f64,
    oom_kills: u64,
    container_periods: u64,
    throttled_periods: u64,
    pods_spawned: u64,
    peak_pods: usize,
    control_bytes: u64,
    rounds_executed: u64,
    rounds_fast_forwarded: u64,
}

fn summarize(shard: usize, apps: usize, out: &TraceSimOutput) -> ShardSummary {
    ShardSummary {
        shard,
        apps,
        invocations: out.serverless.invocations,
        cold_starts: out.serverless.cold_starts,
        cold_start_mean_ms: out.serverless.cold_start_mean_ms(),
        wasted_cpu_core_secs: out.serverless.wasted_cpu_core_secs,
        wasted_mem_mib_secs: out.serverless.wasted_mem_mib_secs,
        exec_slowdown_mean_ms: out.serverless.abs_exec_slowdown_mean_ms(),
        total_slowdown_mean_ms: out.serverless.abs_total_slowdown_mean_ms(),
        latency_p999_ms: out.metrics.latency.p(99.9),
        cpu_slack_p99_cores: out.metrics.slack.cpu_p(99.0),
        mem_slack_p99_mib: out.metrics.slack.mem_p(99.0),
        cpu_limit_mean_cores: out.metrics.cpu_limit_series.mean(),
        mem_limit_mean_mib: out.metrics.mem_limit_series.mean(),
        oom_kills: out.metrics.oom_kills,
        container_periods: out.container_periods,
        throttled_periods: out.throttled_periods,
        pods_spawned: out.pods_spawned,
        peak_pods: out.peak_pods,
        control_bytes: out.control_bytes,
        rounds_executed: out.rounds_executed,
        rounds_fast_forwarded: out.rounds_fast_forwarded,
    }
}

/// Partitions the population round-robin into shard sub-workloads, so
/// every shard sees the same class mix.
fn shard_workloads(w: &TraceWorkload) -> Vec<TraceWorkload> {
    let mut shards = vec![
        TraceWorkload {
            apps: Vec::new(),
            minutes: w.minutes,
        };
        SHARDS
    ];
    for (i, app) in w.apps.iter().enumerate() {
        shards[i % SHARDS].apps.push(app.clone());
    }
    shards
}

fn shard_cfg(seed: u64, nodes_per_shard: usize) -> TraceSimConfig {
    let mut cfg = TraceSimConfig::paper_like(Some(EscraConfig::default()), seed, nodes_per_shard);
    // Batch several windows per datagram, desynchronized across nodes —
    // the realistic (and adversarial-for-determinism) telemetry shape.
    cfg.report_plan = ReportPlan {
        period_multipliers: vec![1, 2, 5],
        jitter_frac: 0.5,
    };
    cfg.columnar = true;
    cfg
}

/// Merged cross-shard view (reduced in shard-index order).
#[derive(Default)]
struct Merged {
    latency: LatencyRecorder,
    slack: SlackRecorder,
    serverless: ServerlessStats,
    cpu_limit: BTreeMap<SimTime, f64>,
    mem_limit: BTreeMap<SimTime, f64>,
    oom_kills: u64,
    container_periods: u64,
    throttled_periods: u64,
    pods_spawned: u64,
    peak_pods: usize,
    control_bytes: u64,
}

fn merge(outs: &[TraceSimOutput]) -> Merged {
    let mut m = Merged::default();
    for out in outs {
        m.latency.merge(&out.metrics.latency);
        m.slack.merge(&out.metrics.slack);
        m.serverless.merge(&out.serverless);
        for (t, v) in out.metrics.cpu_limit_series.iter() {
            *m.cpu_limit.entry(t).or_insert(0.0) += v;
        }
        for (t, v) in out.metrics.mem_limit_series.iter() {
            *m.mem_limit.entry(t).or_insert(0.0) += v;
        }
        m.oom_kills += out.metrics.oom_kills;
        m.container_periods += out.container_periods;
        m.throttled_periods += out.throttled_periods;
        m.pods_spawned += out.pods_spawned;
        // Shards are disjoint sub-clusters; the fleet peak is the sum of
        // per-shard peaks (an upper bound on the simultaneous peak).
        m.peak_pods += out.peak_pods;
        m.control_bytes += out.control_bytes;
    }
    m
}

fn mean(series: &BTreeMap<SimTime, f64>) -> f64 {
    if series.is_empty() {
        0.0
    } else {
        series.values().sum::<f64>() / series.len() as f64
    }
}

pub fn run(args: &Args) {
    let threads = args.workers();
    let (apps, minutes, nodes) = if args.smoke {
        (SMOKE_APPS, SMOKE_MINUTES, SMOKE_NODES)
    } else {
        (FULL_APPS, FULL_MINUTES, FULL_NODES)
    };
    let nodes_per_shard = (nodes / SHARDS).max(1);
    let population = synthetic_trace(&mega_mix(apps, minutes, SEED));
    let shards = shard_workloads(&population);
    let shard_sizes: Vec<usize> = shards.iter().map(|s| s.apps.len()).collect();

    let f = |s: &escra_harness::Scenario<TraceWorkload>| {
        run_trace_sim(&s.input, &shard_cfg(s.seed, nodes_per_shard))
    };
    let start = Instant::now();
    let outs = run_sweep(scenarios(SEED, shards.clone()), threads, f);
    let wall = start.elapsed().as_secs_f64();

    let summaries_of = |outs: &[TraceSimOutput]| -> Vec<ShardSummary> {
        let shard = |(i, o): (usize, &TraceSimOutput)| summarize(i, shard_sizes[i], o);
        outs.iter().enumerate().map(shard).collect()
    };
    let summaries = summaries_of(&outs);
    if args.serial {
        let serial_outs = run_serial(scenarios(SEED, shards), f);
        assert_byte_identical(&summaries, &summaries_of(&serial_outs));
    }

    let m = merge(&outs);
    let cp_rate = m.container_periods as f64 / wall;
    assert!(apps >= 10_000, "population too small: {apps} apps");
    assert!(
        m.container_periods >= 1_000_000,
        "run too small: {} container-periods",
        m.container_periods
    );
    assert!(m.serverless.invocations > 0, "run served no invocations");

    let throttle_rate = m.throttled_periods as f64 / m.container_periods.max(1) as f64;
    println!(
        "Trace mega-scenario ({apps} apps, {} shards x {nodes_per_shard} nodes, {minutes} min)",
        SHARDS
    );
    println!("  invocations          {}", m.serverless.invocations);
    println!(
        "  latency p99.9        {:.1} ms (mean {:.1} ms)",
        m.latency.p(99.9),
        m.latency.mean_ms()
    );
    println!(
        "  cold starts          {} ({:.1} % of invocations, mean {:.0} ms)",
        m.serverless.cold_starts,
        100.0 * m.serverless.cold_start_rate(),
        m.serverless.cold_start_mean_ms()
    );
    println!(
        "  abs slowdown         exec {:.1} ms / total {:.1} ms (mean)",
        m.serverless.abs_exec_slowdown_mean_ms(),
        m.serverless.abs_total_slowdown_mean_ms()
    );
    println!(
        "  wasted               {:.0} core-s CPU, {:.0} MiB-s memory",
        m.serverless.wasted_cpu_core_secs, m.serverless.wasted_mem_mib_secs
    );
    println!(
        "  slack p50/p99        CPU {:.2}/{:.2} cores, mem {:.0}/{:.0} MiB",
        m.slack.cpu_p(50.0),
        m.slack.cpu_p(99.0),
        m.slack.mem_p(50.0),
        m.slack.mem_p(99.0)
    );
    println!(
        "  aggregate limits     {:.0} cores / {:.0} MiB (mean)",
        mean(&m.cpu_limit),
        mean(&m.mem_limit)
    );
    println!(
        "  OOM kills            {} | throttle rate {:.2} %",
        m.oom_kills,
        100.0 * throttle_rate
    );
    println!(
        "  scale                {} container-periods, {} pods spawned (peak Σ {}), {} control bytes",
        m.container_periods, m.pods_spawned, m.peak_pods, m.control_bytes
    );
    println!("  wall                 {wall:.2}s ({cp_rate:.0} container-periods/s)");

    let shards_json = to_json(&summaries);
    let json = format!(
        "{{\n  \"apps\": {apps},\n  \
         \"minutes\": {minutes},\n  \
         \"shards\": {SHARDS},\n  \
         \"invocations\": {},\n  \
         \"cold_starts\": {},\n  \
         \"container_periods\": {},\n  \
         \"throttled_periods\": {},\n  \
         \"oom_kills\": {},\n  \
         \"pods_spawned\": {},\n  \
         \"wall_secs\": {wall:.3},\n  \
         \"container_periods_per_sec\": {cp_rate:.0},\n  \
         \"shard_summaries\": {shards_json}\n}}\n",
        m.serverless.invocations,
        m.serverless.cold_starts,
        m.container_periods,
        m.throttled_periods,
        m.oom_kills,
        m.pods_spawned,
    );
    let tag = if threads == 1 {
        "trace_mega_serial".to_string()
    } else {
        format!("trace_mega_t{threads}")
    };
    let path = write_json(&tag, &json);
    println!("numbers written to {}", path.display());
    // The deterministic dump (no wall times) for cross-process cmp.
    let det = write_json(&format!("{tag}.shards"), &shards_json);
    println!("shard summaries written to {}", det.display());

    if args.record {
        BASELINE.record(&json);
    }
    if args.check {
        let committed = BASELINE.load().unwrap_or_else(|e| fail(&e));
        assert!(
            committed.get("container_periods") >= 1_000_000.0,
            "committed baseline must record >= 1M container-periods at full scale"
        );
        committed.gate("container_periods_per_sec", 0.5, cp_rate);
        println!("check: OK");
    }
}
