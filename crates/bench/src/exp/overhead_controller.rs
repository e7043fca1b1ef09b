//! Regenerates the **§VI-I controller CPU overhead** analysis: how many
//! containers one Controller + Resource Allocator core can manage. Each
//! container reports once per 100 ms period, so
//! `containers/core = ingest_rate / 10`. The paper reports 1 192
//! containers per core (23 859 per 20-core node).
//!
//! The ingest rate is measured twice over identical telemetry:
//!
//! * **unbatched** — one [`ToController::CpuStats`] per container through
//!   `Controller::handle_into`, one message per call (the original
//!   ingest path; it reuses one action buffer, as every caller does);
//! * **batched** — per-node entry batches through the allocation-free
//!   `Controller::ingest_cpu_batch` with caller-owned, reused buffers.
//!
//! A third measurement drives the same telemetry through the
//! **app-sharded** [`ShardedController`] at 1/2/4/8 shards (a 64-app
//! registry, since sharding is by application). Its rate is the
//! *per-shard critical path*: total entries divided by the largest
//! per-shard CPU time spent inside batch ingest. The router applies
//! every shard's work inline on one thread and clocks each shard
//! separately, so the curve is a per-shard CPU-time model: what N cores,
//! one shard each, would sustain. It needs no second core to measure.
//!
//! A fourth measurement drives the same telemetry in the
//! struct-of-arrays `CpuStatsColumns` wire form through
//! `ingest_cpu_columns`, single-core and sharded, asserting along the
//! way that the columnar and row-batched paths make byte-identical
//! decisions.
//!
//! Flags: `--smoke` shortens the run for CI; `--threads N` measures the
//! columnar sharded path at one shard count only; `--record` writes the
//! measured numbers to `BENCH_controller.json` at the repo root (the
//! committed baseline); `--check` fails the process
//! if the batched rate lost the 2× speedup over the pre-optimisation
//! ingest rate or the sharded path lost its 2.5× 4-shard-vs-1-shard
//! scaling, and — on full-length runs only — if the batched, columnar,
//! `t4` or `columnar_t8` rate regressed more than 20% against that
//! committed baseline.

use escra_bench::{fail, write_json, Args, Baseline};
use escra_cfs::{CpuPeriodStats, MIB};
use escra_cluster::{AppId, ContainerId, NodeId};
use escra_core::telemetry::ToController;
use escra_core::{
    Action, Controller, ControllerStats, CpuStatsColumns, CpuStatsEntry, EscraConfig,
    ShardedController,
};
use escra_metrics::Table;
use escra_simcore::time::SimTime;
use std::time::Instant;

/// Ingest rate of the pre-batching Controller (BTreeMap container
/// lookups, one allocation per handled message), measured on this host
/// class before the slab/batching optimisation landed — kept here so
/// `BENCH_controller.json` always carries the before/after pair.
const PRE_PR_UNBATCHED_MSGS_PER_SEC: f64 = 12_841_013.0;

/// Committed baseline written by `--record`, validated by `--check`.
pub const BASELINE: Baseline = Baseline {
    file: "BENCH_controller.json",
    keys: &[
        "pre_pr_unbatched_msgs_per_sec",
        "batched_entries_per_sec",
        "t4",
        "columnar_entries_per_sec",
        "columnar_t8",
    ],
};

const CONTAINERS: u64 = 1_000;
const NODES: u64 = 16;
/// Applications in the sharded setup: enough to balance any shard count
/// in the curve (sharding is by app id, so one app cannot scale).
const APPS: u64 = 64;
/// The scaling curve recorded into `BENCH_controller.json`.
const CURVE_SHARDS: [usize; 4] = [1, 2, 4, 8];
/// Best-of-N trials per sharded point, to shrug off scheduler noise on
/// shared hosts (busy-time can only be over-counted, never under-).
const SHARDED_TRIALS: usize = 3;

fn setup() -> Controller {
    let mut controller = Controller::new(EscraConfig::default());
    controller.register_app(AppId::new(0), CONTAINERS as f64, CONTAINERS * 256 * MIB);
    for i in 0..CONTAINERS {
        controller
            .register_container(
                ContainerId::new(i),
                AppId::new(0),
                NodeId::new(i % NODES),
                1.0,
                200 * MIB,
            )
            .expect("register");
    }
    controller
}

/// Alternate busy/idle telemetry so both decision paths run.
fn stats_for(round: u64, i: u64) -> CpuPeriodStats {
    let throttled = (round + i).is_multiple_of(7);
    CpuPeriodStats {
        quota_cores: 1.0,
        usage_us: if throttled { 100_000.0 } else { 30_000.0 },
        unused_runtime_us: if throttled { 0.0 } else { 70_000.0 },
        throttled,
    }
}

/// One node's telemetry for `round`: its containers in id order, so
/// every measurement drives the shared pools identically.
fn node_stats(round: u64, node: u64) -> impl Iterator<Item = (ContainerId, CpuPeriodStats)> {
    let ids = (node..CONTAINERS).step_by(NODES as usize);
    ids.map(move |i| (ContainerId::new(i), stats_for(round, i)))
}

/// [`node_stats`] as the reused row batch `batch`.
fn fill_rows(batch: &mut Vec<CpuStatsEntry>, round: u64, node: u64) {
    batch.clear();
    let entry = |(container, stats)| CpuStatsEntry { container, stats };
    batch.extend(node_stats(round, node).map(entry));
}

/// [`node_stats`] as the reused column block `block`.
fn fill_columns(block: &mut CpuStatsColumns, round: u64, node: u64) {
    block.clear();
    for (container, stats) in node_stats(round, node) {
        block.push(container, &stats);
    }
}

/// Times `send(controller, round, node, out)` over every node's
/// telemetry for `rounds` rounds on a fresh [`setup`] Controller, with
/// one reused action buffer counted and cleared after each send.
/// Returns the entries/s, the actions emitted and the final stats.
fn measure(
    rounds: u64,
    mut send: impl FnMut(&mut Controller, u64, u64, &mut Vec<Action>),
) -> (f64, u64, ControllerStats) {
    let mut controller = setup();
    let (mut out, mut actions) = (Vec::new(), 0);
    let start = Instant::now();
    for round in 0..rounds {
        for node in 0..NODES {
            send(&mut controller, round, node, &mut out);
            actions += out.len() as u64;
            out.clear();
        }
    }
    let rate = (rounds * CONTAINERS) as f64 / start.elapsed().as_secs_f64();
    (rate, actions, controller.stats())
}

/// The sharded registry spreads the same container population over
/// [`APPS`] applications so every shard count in the curve gets a
/// balanced partition.
fn setup_sharded(shards: usize) -> ShardedController {
    let mut sharded = ShardedController::new(EscraConfig::default(), shards);
    let per_app = CONTAINERS / APPS;
    for a in 0..APPS {
        sharded.register_app(
            AppId::new(a),
            (per_app + 1) as f64 * 2.0,
            (per_app + 1) * 512 * MIB,
        );
    }
    for i in 0..CONTAINERS {
        sharded
            .register_container(
                ContainerId::new(i),
                AppId::new(i % APPS),
                NodeId::new(i % NODES),
                1.0,
                200 * MIB,
            )
            .expect("register");
    }
    sharded
}

/// One sharded trial: `send(sharded, round, node)` feeds each node's
/// telemetry to the router, which fans it out to the shards; actions
/// are drained every round. Returns the critical-path rate (total
/// entries / max per-shard ingest CPU time), the actions drained, and
/// the merged stats.
fn sharded_trial(
    rounds: u64,
    shards: usize,
    mut send: impl FnMut(&mut ShardedController, u64, u64),
) -> (f64, u64, ControllerStats) {
    let mut sharded = setup_sharded(shards);
    let mut out = Vec::new();
    sharded.drain_actions_into(&mut out); // discard registration bootstrap
    out.clear();
    let mut actions = 0u64;
    for round in 0..rounds {
        for node in 0..NODES {
            send(&mut sharded, round, node);
        }
        sharded.drain_actions_into(&mut out);
        actions += out.len() as u64;
        out.clear();
    }
    let critical_path = sharded
        .ingest_busy_per_shard()
        .into_iter()
        .max()
        .expect("at least one shard");
    let rate = (rounds * CONTAINERS) as f64 / critical_path.as_secs_f64();
    (rate, actions, sharded.stats())
}

/// Best-of-[`SHARDED_TRIALS`] over any trial flavour. The single-core
/// paths need this as much as the sharded ones: a full-length trial is
/// only a few milliseconds of wall clock, so a single scheduler
/// preemption inside the window halves the measured rate.
fn best_of(mut trial: impl FnMut() -> (f64, u64, ControllerStats)) -> (f64, u64, ControllerStats) {
    let mut best = 0.0f64;
    let mut last = None;
    for _ in 0..SHARDED_TRIALS {
        let (rate, actions, stats) = trial();
        best = best.max(rate);
        last = Some((actions, stats));
    }
    let (actions, stats) = last.expect("at least one trial");
    (best, actions, stats)
}

/// Best-of-[`SHARDED_TRIALS`] sharded trials, each node's telemetry
/// sent as one reused row batch or, with `columnar`, one reused column
/// block (split by `ShardedController::ingest_cpu_columns` into reused
/// per-shard sub-blocks).
fn measure_sharded(rounds: u64, shards: usize, columnar: bool) -> (f64, u64, ControllerStats) {
    let (mut batch, mut block) = (Vec::new(), CpuStatsColumns::new());
    best_of(|| {
        if columnar {
            sharded_trial(rounds, shards, |sharded, round, node| {
                fill_columns(&mut block, round, node);
                sharded.ingest_cpu_columns(&block);
            })
        } else {
            sharded_trial(rounds, shards, |sharded, round, node| {
                fill_rows(&mut batch, round, node);
                sharded.ingest_cpu_batch(&batch);
            })
        }
    })
}

/// A scaling curve as JSON members `"{prefix}t{shards}": rate`. The
/// columnar curve's keys are prefixed (`columnar_t8`, not a nested `t8`)
/// so the baseline's string-searching key lookup can never confuse the
/// row and columnar curves.
fn curve_json(prefix: &str, curve: &[(usize, f64)]) -> String {
    let members: Vec<String> = curve
        .iter()
        .map(|(t, rate)| format!("    \"{prefix}t{t}\": {rate:.0}"))
        .collect();
    members.join(",\n")
}

fn render_json(
    unbatched: f64,
    batched: f64,
    curve: &[(usize, f64)],
    col: f64,
    columnar_curve: &[(usize, f64)],
) -> String {
    let per_core = batched / 10.0;
    let (t1, t4) = (curve[0].1, rate_at(curve, 4));
    format!(
        "{{\n  \"pre_pr_unbatched_msgs_per_sec\": {PRE_PR_UNBATCHED_MSGS_PER_SEC:.0},\n  \
         \"unbatched_msgs_per_sec\": {unbatched:.0},\n  \
         \"batched_entries_per_sec\": {batched:.0},\n  \
         \"speedup_vs_pre_pr\": {:.2},\n  \
         \"containers_per_core\": {per_core:.0},\n  \
         \"containers_per_20core_node\": {:.0},\n  \
         \"sharded_entries_per_sec_by_threads\": {{\n{}\n  }},\n  \
         \"sharded_speedup_4t_vs_1t\": {:.2},\n  \
         \"columnar_entries_per_sec\": {col:.0},\n  \
         \"columnar_speedup_vs_batched\": {:.2},\n  \
         \"columnar_sharded_entries_per_sec_by_threads\": {{\n{}\n  }}\n}}\n",
        batched / PRE_PR_UNBATCHED_MSGS_PER_SEC,
        per_core * 20.0,
        curve_json("", curve),
        if t1 > 0.0 { t4 / t1 } else { 0.0 },
        if batched > 0.0 { col / batched } else { 0.0 },
        curve_json("columnar_", columnar_curve),
    )
}

/// The rate of the `shards` point of a scaling curve.
fn rate_at(curve: &[(usize, f64)], shards: usize) -> f64 {
    let point = curve.iter().find(|&&(t, _)| t == shards);
    point.map(|&(_, r)| r).expect("curve has the point")
}

pub fn run(args: &Args) {
    let smoke = args.smoke;
    let rounds = if smoke { 40 } else { 200 };
    let sharded_rounds = if smoke { 100 } else { 400 };

    if let Some(shards) = args.threads {
        // Single-point sharded mode: no baseline bookkeeping, just the
        // capacity of one shard-count configuration. `--record`/`--check`
        // need the whole curve, so they fall through to the full suite.
        let (rate, actions, stats) = measure_sharded(sharded_rounds, shards, true);
        println!(
            "columnar sharded ingest, {shards} shard(s): {rate:.0} entries/s \
             (critical path), {actions} actions, {} entries ingested",
            stats.cpu_stats_ingested
        );
        if !args.record && !args.check {
            return;
        }
    }

    // Per-message ingest through `handle_into`, one message per call.
    let (unbatched_rate, actions_a, stats_a) = best_of(|| {
        measure(rounds, |controller, round, node, out| {
            let now = SimTime::from_millis(round * 100);
            for (container, stats) in node_stats(round, node) {
                controller.handle_into(now, ToController::CpuStats { container, stats }, out);
            }
        })
    });
    // Batched ingest: each node's entries collected into a reused batch
    // (modelling the Agent's per-period coalescing) and fed through the
    // allocation-free `ingest_cpu_batch`.
    let mut batch = Vec::new();
    let (batched_rate, actions_b, stats_b) = best_of(|| {
        measure(rounds, |controller, round, node, out| {
            fill_rows(&mut batch, round, node);
            controller.ingest_cpu_batch(&batch, out);
        })
    });
    assert_eq!(
        stats_a, stats_b,
        "batched and per-message ingest must make identical decisions"
    );
    assert_eq!(actions_a, actions_b);

    // Columnar ingest: the same telemetry as per-node column blocks, fed
    // through `ingest_cpu_columns`. The blocks are built *outside* the
    // timed loop: fixed-point quantization is Agent-side work (the wire
    // carries the columns already encoded), so the timed section covers
    // exactly what the Controller core pays — just as the row paths'
    // in-loop batch fills stand in for reading rows off the wire. The
    // bench telemetry values are exactly representable in the
    // fixed-point columns, so the decisions are identical to the rows'.
    let mut blocks = Vec::with_capacity((rounds * NODES) as usize);
    for (round, node) in (0..rounds).flat_map(|r| (0..NODES).map(move |n| (r, n))) {
        let mut block = CpuStatsColumns::new();
        fill_columns(&mut block, round, node);
        blocks.push(block);
    }
    let (columnar_rate, actions_c, stats_c) = best_of(|| {
        measure(rounds, |controller, round, node, out| {
            controller.ingest_cpu_columns(&blocks[(round * NODES + node) as usize], out);
        })
    });
    assert_eq!(
        (actions_c, &stats_c),
        (actions_b, &stats_b),
        "columnar and batched ingest must make identical decisions"
    );

    // The row, then the columnar, sharded scaling curve. Decisions must
    // not depend on the shard count or the wire form: every point's
    // merged stats and drained action count must match the 1-shard row
    // run exactly.
    let mut reference: Option<(u64, ControllerStats)> = None;
    let mut sharded_curve = |columnar: bool| -> Vec<(usize, f64)> {
        let point = |shards: usize| {
            let (rate, actions, stats) = measure_sharded(sharded_rounds, shards, columnar);
            let (ref_actions, ref_stats) = *reference.get_or_insert((actions, stats));
            assert_eq!(
                (actions, stats),
                (ref_actions, ref_stats),
                "sharding must not change decisions ({shards} shards, columnar {columnar})"
            );
            (shards, rate)
        };
        CURVE_SHARDS.into_iter().map(point).collect()
    };
    let curve = sharded_curve(false);
    let columnar_curve = sharded_curve(true);

    let per_core = batched_rate / 10.0; // each container reports at 10 Hz
    let rate = |r: f64| format!("{r:.0}");
    let mut rows: Vec<(String, String)> = vec![
        (
            "telemetry entries processed (each path)".into(),
            format!("{}", rounds * CONTAINERS),
        ),
        ("actions emitted".into(), format!("{actions_b}")),
        (
            "unbatched ingest rate (msg/s/core)".into(),
            rate(unbatched_rate),
        ),
        (
            "batched ingest rate (entries/s/core)".into(),
            rate(batched_rate),
        ),
        (
            "pre-optimisation baseline (msg/s/core)".into(),
            rate(PRE_PR_UNBATCHED_MSGS_PER_SEC),
        ),
        (
            "speedup vs pre-optimisation".into(),
            format!("{:.2}x", batched_rate / PRE_PR_UNBATCHED_MSGS_PER_SEC),
        ),
        ("containers manageable per core".into(), rate(per_core)),
        ("containers per 20-core node".into(), rate(per_core * 20.0)),
    ];
    let curve_rows = |form: &str, curve: &[(usize, f64)]| -> Vec<(String, String)> {
        let row = |&(shards, rate): &(usize, f64)| {
            (
                format!("{form}sharded ingest rate, {shards} shard(s) (entries/s)"),
                format!("{rate:.0} ({:.2}x vs 1 shard)", rate / curve[0].1),
            )
        };
        curve.iter().map(row).collect()
    };
    rows.extend(curve_rows("", &curve));
    rows.push((
        "columnar ingest rate (entries/s/core)".into(),
        format!(
            "{columnar_rate:.0} ({:.2}x vs batched)",
            columnar_rate / batched_rate
        ),
    ));
    rows.extend(curve_rows("columnar ", &columnar_curve));
    let mut table = Table::new(vec!["metric", "value"]);
    for (metric, value) in rows {
        table.row(vec![metric, value]);
    }
    println!("Escra Controller + Resource Allocator capacity (host-clock microbenchmark)");
    println!("{}", table.render());
    println!("(paper: 1 192 containers/core, 23 859 per 20-core node — without the");
    println!(" cAdvisor-based reclamation path, which they call out as replaceable;");
    println!(" sharded rates are per-shard critical-path: entries / max shard CPU time)");

    let json = render_json(
        unbatched_rate,
        batched_rate,
        &curve,
        columnar_rate,
        &columnar_curve,
    );
    let path = write_json("overhead_controller", &json);
    println!("numbers written to {}", path.display());

    if args.record {
        BASELINE.record(&json);
    }
    if args.check {
        let committed = BASELINE.load().unwrap_or_else(|e| fail(&e));
        committed.gate("pre_pr_unbatched_msgs_per_sec", 2.0, batched_rate);
        let (t1, t4) = (curve[0].1, rate_at(&curve, 4));
        println!(
            "check: sharded t4 {t4:.0} vs t1 {t1:.0} ({:.2}x, floor 2.5x)",
            t4 / t1
        );
        if t4 < 2.5 * t1 {
            fail(&format!(
                "sharded ingest lost its 4-shard scaling ({t4:.0} < 2.5 * {t1:.0})"
            ));
        }
        // The 20 % floors vs the committed rates apply to full-length
        // runs only: a smoke trial is a few milliseconds of wall clock,
        // and one slow scheduling episode on a shared host moves it by
        // 40 %. Smoke keeps the decision-identity asserts, the 2x
        // pre-slab floor, the t4/t1 scaling ratio and the key lookups.
        if !smoke {
            let col_t8 = rate_at(&columnar_curve, 8);
            committed.gate("batched_entries_per_sec", 0.8, batched_rate);
            committed.gate("t4", 0.8, t4);
            committed.gate("columnar_entries_per_sec", 0.8, columnar_rate);
            committed.gate("columnar_t8", 0.8, col_t8);
        }
        println!("check: OK");
    }
}
