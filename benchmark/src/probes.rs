//! Per-layer probes: each layer of the repository exercised alone, in
//! blocks of at least [`MIN_BLOCK_OPS`] identical operations on the
//! workload's own plant state, one span per block. They run only in the
//! traced run and price the ledger's rows.
//!
//! A probe's number is the fastest of [`BLOCKS`] blocks (noise only adds
//! time, see `run.rs`) as `block wall / operations`. It is the cost of
//! the layer *alone*, with
//! a warm cache — an optimisation of that layer should move it, and the
//! end-to-end metric it feeds should move by about the layer's ledger
//! share of that.

use crate::plant::{Plant, PlantInputs, PERIOD_US};
use crate::span::{Tracer, MIN_BLOCK_OPS};
use crate::stats::fastest;
use crate::workloads::LayerValues;
use escra_baselines::{
    ArcVScaler, AutopilotScaler, ContainerProfile, PeriodicScaler, StaticPolicy, TinyAutoscaler,
    UsageSample, VpaScaler,
};
use escra_cfs::node::arbitrate;
use escra_cfs::{CpuBandwidth, CpuPeriodStats, MemCgroup, MIB};
use escra_cluster::{AppId, ContainerId, ContainerSpec, NodeId};
use escra_core::columnar::set_force_scalar;
use escra_core::telemetry::{CpuStatsColumns, CpuStatsEntry, ToAgent, ToController};
use escra_core::{Action, Agent, Controller, EscraConfig, ReclaimEntry, ShardedController};
use escra_harness::queueing::{drain_fifo, StageJob};
use escra_mc::{explore, McConfig, Strategy};
use escra_metrics::trace::{TraceEventKind, TraceRecorder, TraceSink};
use escra_metrics::{
    CostModel, LatencyRecorder, PromText, RunMetrics, ServerlessStats, SlackRecorder,
};
use escra_net::{BandwidthAccountant, FaultInjector, LatencyModel, Network};
use escra_simcore::events::EventQueue;
use escra_simcore::histogram::LogHistogram;
use escra_simcore::rng::SimRng;
use escra_simcore::time::{SimDuration, SimTime};
use escra_simcore::window::{BitWindow, InlineWindow};
use escra_workloads::{mega_mix, synthetic_trace, RequestGenerator, TraceApp, WorkloadKind};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Blocks per probe; the probe reports the fastest.
pub const BLOCKS: usize = 7;

/// Containers the sharded-Controller probe registers at most (it spawns
/// worker threads; a bounded population keeps it short).
const SHARDED_CONTAINERS: usize = 16_384;

/// Runs `block` once inside a span called `name` and returns its
/// nanoseconds per operation. `block` returns the number of operations
/// it performed.
fn time_block(tracer: &mut Tracer, name: &'static str, block: impl FnOnce() -> u64) -> f64 {
    let start = Instant::now();
    let ops = tracer.span(name, |_| {
        let ops = block();
        (ops, ops)
    });
    let ns = start.elapsed().as_nanos() as f64;
    assert!(
        ops >= MIN_BLOCK_OPS,
        "{name}: a block of {ops} operations is too small to time"
    );
    ns / ops as f64
}

/// Runs `block` [`BLOCKS`] times and returns the fastest block's
/// nanoseconds per operation.
fn measure(tracer: &mut Tracer, name: &'static str, mut block: impl FnMut() -> u64) -> f64 {
    fastest((0..BLOCKS).map(|_| time_block(tracer, name, &mut block)))
}

/// How many passes over `n` items make a block of at least
/// [`MIN_BLOCK_OPS`] operations.
fn passes(n: usize) -> usize {
    (MIN_BLOCK_OPS as usize).div_ceil(n.max(1)).max(1)
}

/// Plausible end-of-period statistics for the `i`-th container.
fn stats_for(i: usize, round: u64) -> CpuPeriodStats {
    let throttled = (i as u64 + round).is_multiple_of(11);
    let usage = if throttled {
        100_000.0
    } else {
        20_000.0 + (i % 7) as f64 * 5_000.0
    };
    CpuPeriodStats {
        quota_cores: 1.0,
        unused_runtime_us: 100_000.0 - usage,
        usage_us: usage,
        throttled,
    }
}

/// Runs every probe on the state of a plant built from `inputs`.
pub fn run_probes(inputs: &PlantInputs, seed: u64, tracer: &mut Tracer) -> LayerValues {
    let mut out = LayerValues::new();
    let mut rng = SimRng::new(seed).fork(0x7072_6f62); // "prob"

    // The plant, run long enough for quotas and limits to leave their
    // start values.
    let mut warm = inputs.clone();
    warm.shape.periods = 60;
    warm.shape.churn_every = 0;
    let mut plant = Plant::new(&warm);
    plant.run();
    let shape = plant.shape().clone();
    let ids: Vec<ContainerId> = plant.members().iter().flatten().copied().collect();
    let n = ids.len();
    let per_node = n.div_ceil(shape.nodes.max(1)).max(1);
    let reps = passes(n);

    // ---- the bench itself
    out.insert(
        "bench.timer_ns",
        measure(tracer, "bench.timer", || {
            let mut acc = 0u128;
            for _ in 0..4096 {
                acc += Instant::now().elapsed().as_nanos();
            }
            black_box(acc);
            4096
        }),
    );

    // ---- simcore
    out.insert(
        "simcore.rng.exponential_ns",
        measure(tracer, "simcore.rng.exponential", || {
            let mut acc = 0.0;
            for _ in 0..8192 {
                acc += rng.exponential(3.0);
            }
            black_box(acc);
            8192
        }),
    );
    {
        // A heap as deep as the workload's: one timer per container and
        // node, like the drivers keep.
        let depth = (n + shape.nodes).clamp(64, 65_536);
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut t = 0u64;
        for i in 0..depth {
            q.push_keyed(
                SimTime::from_micros(rng.next_below(1_000_000)),
                i as u64,
                i as u32,
            );
        }
        out.insert(
            "simcore.events.push_pop_ns",
            measure(tracer, "simcore.events.push_pop", || {
                for _ in 0..4096 {
                    let (at, ev) = q.pop().expect("heap stays full");
                    t = at.as_micros() + 1 + rng.next_below(1_000_000);
                    q.push_keyed(SimTime::from_micros(t), ev as u64, ev);
                }
                4096
            }),
        );
    }
    {
        let mut h = LogHistogram::new();
        out.insert(
            "simcore.histogram.record_ns",
            measure(tracer, "simcore.histogram.record", || {
                for i in 0..8192u32 {
                    h.record(0.5 + (i % 977) as f64 * 1.37);
                }
                8192
            }),
        );
    }
    {
        let width = n.clamp(64, 4096);
        let mut unused: Vec<InlineWindow> = (0..width).map(|_| InlineWindow::new(5)).collect();
        let mut throttle: Vec<BitWindow> = (0..width).map(|_| BitWindow::new(5)).collect();
        let mut round = 0u64;
        out.insert(
            "simcore.window.push_ns",
            measure(tracer, "simcore.window.push", || {
                let mut acc = 0.0;
                for _ in 0..passes(width) {
                    round += 1;
                    for (i, (u, t)) in unused.iter_mut().zip(throttle.iter_mut()).enumerate() {
                        u.push((i as u64 + round) as f64 * 0.001);
                        t.push((i as u64 + round).is_multiple_of(7));
                        acc += u.mean() + t.mean();
                    }
                }
                black_box(acc);
                (passes(width) * width) as u64
            }),
        );
    }

    // ---- workloads
    out.insert(
        "workloads.synthetic_trace.apps_per_s",
        1e9 / measure(tracer, "workloads.synthetic_trace", || {
            black_box(synthetic_trace(&mega_mix(2048, 3, seed)));
            2048
        }),
    );
    {
        let app = TraceApp {
            name: "probe".into(),
            rpm: vec![30.0],
            exec_ms_mu: 200f64.ln(),
            exec_ms_sigma: 0.8,
            mem_mib: 64,
            idle_mem_mib: 16,
        };
        out.insert(
            "workloads.trace_workload.sample_exec_ns",
            measure(tracer, "workloads.trace_workload.sample_exec", || {
                let mut acc = 0.0;
                for _ in 0..8192 {
                    acc += app.sample_exec_us(&mut rng);
                }
                black_box(acc);
                8192
            }),
        );
    }
    {
        let mut gen = RequestGenerator::new(WorkloadKind::paper_exp(), seed);
        let mut t = SimTime::ZERO;
        out.insert(
            "workloads.generators.arrival_ns",
            measure(tracer, "workloads.generators.arrival", || {
                let mut arrivals = 0u64;
                while arrivals < 2048 {
                    let end = t + SimDuration::from_millis(100);
                    arrivals += gen.arrivals_in(t, end).len() as u64;
                    t = end;
                }
                arrivals
            }),
        );
    }
    {
        let mut queue: VecDeque<StageJob> = VecDeque::new();
        out.insert(
            "harness.queueing.drain_fifo_ns_per_job",
            measure(tracer, "harness.queueing.drain_fifo", || {
                let mut done = 0u64;
                for round in 0..32u64 {
                    let start = SimTime::from_millis(100 * round);
                    for j in 0..64 {
                        queue.push_back(StageJob {
                            request: j,
                            remaining_us: 500.0 + j as f64,
                            queued_at: start,
                        });
                    }
                    let end = start + SimDuration::from_millis(100);
                    done += drain_fifo(&mut queue, start, end, 2.0, 1e9)
                        .completions
                        .len() as u64;
                }
                done
            }),
        );
    }

    // ---- metrics
    {
        let mut latency = LatencyRecorder::new();
        out.insert(
            "metrics.recorders.latency_record_ns",
            measure(tracer, "metrics.recorders.latency_record", || {
                for i in 0..8192u64 {
                    latency.record_success(SimDuration::from_micros(800 + i * 37 % 90_000));
                }
                8192
            }),
        );
        let mut slack = SlackRecorder::new();
        out.insert(
            "metrics.recorders.slack_record_ns",
            measure(tracer, "metrics.recorders.slack_record", || {
                for i in 0..8192u32 {
                    slack.record((i % 311) as f64 * 0.01, (i % 509) as f64 * 0.7);
                }
                8192
            }),
        );
        let mut serverless = ServerlessStats::new();
        out.insert(
            "metrics.serverless.completion_record_ns",
            measure(tracer, "metrics.serverless.completion_record", || {
                for i in 0..8192u64 {
                    let ideal = SimDuration::from_micros(50_000 + i % 9_000);
                    serverless.record_completion(ideal, ideal.mul_f64(1.2), ideal.mul_f64(1.7));
                }
                8192
            }),
        );
        let mut recorder = TraceRecorder::with_capacity(4096);
        out.insert(
            "metrics.trace.record_ns",
            measure(tracer, "metrics.trace.record", || {
                for i in 0..8192u64 {
                    recorder.emit(
                        SimTime::from_micros(i),
                        TraceEventKind::GrantIssued {
                            container: i,
                            new_limit_bytes: i << 20,
                        },
                    );
                }
                8192
            }),
        );
        let stats = plant.controller().stats();
        let hist = {
            let mut h = LogHistogram::new();
            (1..2000).for_each(|i| h.record(i as f64));
            h
        };
        out.insert(
            "metrics.expo.render_ms",
            measure(tracer, "metrics.expo.render", || {
                for _ in 0..1024 {
                    let mut text = PromText::new();
                    text.counter(
                        "escra_cpu_stats_ingested",
                        "entries",
                        stats.cpu_stats_ingested,
                    );
                    text.counter("escra_quota_updates", "updates", stats.quota_updates);
                    text.counter("escra_mem_grants", "grants", stats.mem_grants);
                    text.gauge("escra_containers", "live", n as f64);
                    text.summary("escra_decision_us", "decision latency", &hist);
                    black_box(text.finish());
                }
                1024
            }) / 1e6,
        );
        let mut run = RunMetrics::new("probe");
        for s in 1..=600 {
            run.record_limits(SimTime::from_secs(s), 40.0 + s as f64 * 0.01, 9_000.0);
        }
        let model = CostModel::default();
        out.insert(
            "metrics.cost.run_cost_ms",
            measure(tracer, "metrics.cost.run_cost", || {
                let mut acc = 0.0;
                for _ in 0..1024 {
                    acc += model.run_cost(black_box(&run)).total();
                }
                black_box(acc);
                1024
            }) / 1e6,
        );
    }

    // ---- cfs
    {
        let mut cpus: Vec<CpuBandwidth> = (0..n.max(1)).map(|_| CpuBandwidth::new(1.0)).collect();
        out.insert(
            "cfs.cpu.period_ns",
            measure(tracer, "cfs.cpu.period", || {
                let mut acc = 0.0;
                for r in 0..reps {
                    for (i, cpu) in cpus.iter_mut().enumerate() {
                        cpu.consume(20_000.0 + ((i + r) % 9) as f64 * 11_000.0);
                        acc += cpu.end_period().usage_us;
                    }
                }
                black_box(acc);
                (reps * cpus.len()) as u64
            }),
        );
        let mut mems: Vec<MemCgroup> = (0..n.max(1)).map(|_| MemCgroup::new(256 * MIB)).collect();
        out.insert(
            "cfs.memory.charge_ns",
            measure(tracer, "cfs.memory.charge", || {
                let mut trapped = 0u64;
                for r in 0..reps {
                    for (i, mem) in mems.iter_mut().enumerate() {
                        let bytes = (1 + (i + r) % 5) as u64 * MIB;
                        trapped += !mem.try_charge(bytes).is_charged() as u64;
                        mem.uncharge(bytes);
                    }
                }
                black_box(trapped);
                (reps * mems.len()) as u64
            }),
        );
        let capacity = shape.node_cores as f64 * PERIOD_US as f64;
        let demands: Vec<f64> = (0..per_node)
            .map(|_| rng.uniform(0.0, 1.2 * PERIOD_US as f64))
            .collect();
        out.insert(
            "cfs.node.arbitrate_ns_per_demand",
            measure(tracer, "cfs.node.arbitrate", || {
                let calls = passes(per_node);
                for _ in 0..calls {
                    black_box(arbitrate(capacity, black_box(&demands)));
                }
                (calls * per_node) as u64
            }),
        );
    }

    // ---- cluster
    {
        let mut cluster = plant.cluster().clone();
        out.insert(
            "cluster.lookup_ns",
            measure(tracer, "cluster.lookup", || {
                let mut running = 0u64;
                for _ in 0..reps {
                    for &id in &ids {
                        running += cluster.container(id).is_some_and(|c| c.is_running()) as u64;
                    }
                }
                black_box(running);
                (reps * n) as u64
            }),
        );
        let mut now = SimTime::from_secs(100);
        out.insert(
            "cluster.tick_ns_per_container",
            measure(tracer, "cluster.tick", || {
                let count = cluster.container_count();
                for _ in 0..passes(count) {
                    now += SimDuration::from_millis(100);
                    cluster.tick(now);
                }
                (passes(count) * count) as u64
            }),
        );
        out.insert(
            "cluster.deploy_terminate_ns",
            measure(tracer, "cluster.deploy_terminate", || {
                for i in 0..1024 {
                    let spec = ContainerSpec::new(format!("probe-{i}"), AppId::new(0))
                        .with_mem_limit(128 * MIB)
                        .with_base_mem(32 * MIB);
                    let id = cluster.deploy(spec, now).expect("plant has nodes");
                    cluster.terminate(id, now).expect("just deployed");
                }
                1024
            }),
        );
    }

    // ---- telemetry encode
    {
        let mut cols = CpuStatsColumns::new();
        out.insert(
            "core.telemetry.columns_push_ns",
            measure(tracer, "core.telemetry.columns_push", || {
                for r in 0..reps {
                    cols.clear();
                    for (i, &id) in ids.iter().enumerate() {
                        cols.push(id, &stats_for(i, r as u64));
                    }
                }
                black_box(cols.len());
                (reps * n) as u64
            }),
        );
        let mut rows: Vec<CpuStatsEntry> = Vec::new();
        out.insert(
            "core.telemetry.rows_push_ns",
            measure(tracer, "core.telemetry.rows_push", || {
                for r in 0..reps {
                    rows.clear();
                    for (i, &id) in ids.iter().enumerate() {
                        rows.push(CpuStatsEntry {
                            container: id,
                            stats: stats_for(i, r as u64),
                        });
                    }
                }
                black_box(rows.len());
                (reps * n) as u64
            }),
        );
        let datagram = ToController::CpuStatsBatch {
            node: NodeId::new(0),
            entries: vec![
                CpuStatsEntry {
                    container: ContainerId::new(0),
                    stats: stats_for(0, 0),
                };
                per_node
            ],
        };
        out.insert(
            "core.telemetry.wire_bytes_per_entry",
            datagram.wire_bytes() as f64 / per_node as f64,
        );
    }

    // ---- controller ingest, four forms of the same per-node datagrams
    let node_rows: Vec<Vec<CpuStatsEntry>> = plant
        .members()
        .iter()
        .filter(|m| !m.is_empty())
        .map(|m| {
            m.iter()
                .map(|&id| CpuStatsEntry {
                    container: id,
                    stats: stats_for(id.as_u64() as usize, 0),
                })
                .collect()
        })
        .collect();
    let node_cols: Vec<CpuStatsColumns> = node_rows
        .iter()
        .map(|r| CpuStatsColumns::from_entries(r))
        .collect();
    let mut actions: Vec<Action> = Vec::new();
    {
        let mut ingest_columns = |tracer: &mut Tracer, name: &'static str| {
            let mut controller = plant.controller().clone();
            let mut emitted = 0u64;
            let ns = measure(tracer, name, || {
                for _ in 0..reps {
                    for block in &node_cols {
                        controller.ingest_cpu_columns(block, &mut actions);
                        emitted += actions.len() as u64;
                        actions.clear();
                    }
                }
                (reps * n) as u64
            });
            black_box(emitted);
            ns
        };
        out.insert(
            "core.controller.ingest_columns_ns_per_entry",
            ingest_columns(tracer, "core.controller.ingest_columns"),
        );
        set_force_scalar(true);
        let scalar = ingest_columns(tracer, "core.controller.ingest_columns_scalar");
        set_force_scalar(false);
        out.insert("core.controller.ingest_columns_scalar_ns_per_entry", scalar);

        let mut controller = plant.controller().clone();
        out.insert(
            "core.controller.ingest_batch_ns_per_entry",
            measure(tracer, "core.controller.ingest_batch", || {
                for _ in 0..reps {
                    for batch in &node_rows {
                        controller.ingest_cpu_batch(batch, &mut actions);
                        actions.clear();
                    }
                }
                (reps * n) as u64
            }),
        );
        let mut controller = plant.controller().clone();
        out.insert(
            "core.controller.ingest_single_ns_per_entry",
            measure(tracer, "core.controller.ingest_single", || {
                for _ in 0..reps {
                    for e in node_rows.iter().flatten() {
                        controller.handle_into(
                            SimTime::ZERO,
                            ToController::CpuStats {
                                container: e.container,
                                stats: e.stats,
                            },
                            &mut actions,
                        );
                        actions.clear();
                    }
                }
                (reps * n) as u64
            }),
        );
        let mut allocator = plant.controller().allocator().clone();
        out.insert(
            "core.allocator.on_cpu_stats_ns",
            measure(tracer, "core.allocator.on_cpu_stats", || {
                let mut moved = 0u64;
                for _ in 0..reps {
                    for e in node_rows.iter().flatten() {
                        let decision = allocator.on_cpu_stats(e.container, e.stats);
                        moved += !matches!(decision, Ok(escra_core::CpuDecision::Hold)) as u64;
                    }
                }
                black_box(moved);
                (reps * n) as u64
            }),
        );
    }

    // ---- controller memory side, registration and periodic work, on a
    // Controller with the plant's registry but pools roomy enough that
    // a thousand grants to eight containers all succeed
    {
        let registry = plant.controller().allocator();
        let mut controller = Controller::new(EscraConfig::default());
        for a in 0..shape.apps.max(1) as u64 {
            controller.register_app(AppId::new(a), n as f64 * 4.0, (n as u64 + 1024) << 40);
        }
        for &id in &ids {
            let (Some(app), Some(node)) = (registry.app_of(id), registry.node_of(id)) else {
                continue;
            };
            controller
                .register_container(id, app, node, 1.0, 128 * MIB)
                .expect("the plant's ids are unique");
        }
        let mut now = SimTime::from_secs(10);
        let batch: Vec<ContainerId> = ids.iter().copied().cycle().take(1024).collect();
        // One round per block: 1024 OOM events (all granted), their
        // acks, then a report that shrinks every limit back — so each
        // block starts from the same books and the pools never run dry.
        let (mut oom, mut ack, mut report): (Vec<f64>, Vec<f64>, Vec<f64>) = Default::default();
        let mut grants: Vec<(ContainerId, u64)> = Vec::with_capacity(batch.len());
        for _ in 0..BLOCKS {
            oom.push(time_block(tracer, "core.controller.oom_event", || {
                for &container in &batch {
                    let limit = controller.allocator().mem_limit_of(container).unwrap_or(0);
                    controller.handle_into(
                        now,
                        ToController::OomEvent {
                            container,
                            shortfall_bytes: MIB,
                            current_limit_bytes: limit,
                        },
                        &mut actions,
                    );
                }
                batch.len() as u64
            }));
            grants.clear();
            grants.extend(actions.drain(..).filter_map(|a| match a {
                Action::Agent {
                    cmd: ToAgent::SetMemLimit { container, seq, .. },
                    ..
                } => Some((container, seq)),
                _ => None,
            }));
            assert_eq!(grants.len(), batch.len(), "every probe OOM is granted");
            // A container hit twice keeps only its newest grant pending;
            // the older seqs take the mismatch path, as stragglers do.
            ack.push(time_block(tracer, "core.controller.limit_ack", || {
                for &(container, seq) in &grants {
                    controller.handle_into(
                        now,
                        ToController::LimitAck { container, seq },
                        &mut actions,
                    );
                }
                grants.len() as u64
            }));
            actions.clear();
            let entries: Vec<ReclaimEntry> = ids
                .iter()
                .take(batch.len())
                .map(|&container| ReclaimEntry {
                    container,
                    new_limit_bytes: 128 * MIB,
                    psi_bytes: 0,
                })
                .collect();
            report.push(time_block(tracer, "core.controller.reclaim_report", || {
                let mut fed = 0u64;
                for _ in 0..passes(entries.len()) {
                    for chunk in entries.chunks(per_node) {
                        black_box(controller.on_reclaim_report(now, chunk));
                        fed += chunk.len() as u64;
                    }
                }
                fed
            }));
        }
        out.insert("core.controller.oom_event_ns", fastest(oom));
        out.insert("core.controller.limit_ack_ns", fastest(ack));
        out.insert(
            "core.controller.reclaim_report_ns_per_entry",
            fastest(report),
        );
        out.insert(
            "core.controller.tick_ns",
            measure(tracer, "core.controller.tick", || {
                for _ in 0..1024 {
                    now += SimDuration::from_millis(100);
                    controller.tick_into(now, &mut actions);
                    actions.clear();
                }
                1024
            }),
        );
        let apps = shape.apps.max(1) as u64;
        out.insert(
            "core.controller.register_pair_ns",
            measure(tracer, "core.controller.register_pair", || {
                for (i, &container) in batch.iter().enumerate() {
                    let Some(node) = controller.allocator().node_of(container) else {
                        continue;
                    };
                    let app = controller
                        .allocator()
                        .app_of(container)
                        .unwrap_or(AppId::new(i as u64 % apps));
                    let _ = controller.deregister_container(container);
                    black_box(
                        controller
                            .register_container(container, app, node, 1.0, 128 * MIB)
                            .ok(),
                    );
                }
                batch.len() as u64
            }),
        );
    }

    // ---- sharded controller: router and worker cost, 1 and 2 shards
    for shards in [1usize, 2] {
        let population = n.clamp(1, SHARDED_CONTAINERS);
        let apps = shape.apps.clamp(2, 64) as u64;
        let mut sharded = ShardedController::new(EscraConfig::default(), shards);
        for a in 0..apps {
            let members = (population as u64).div_ceil(apps);
            sharded.register_app(AppId::new(a), members as f64 * 2.0, members * 512 * MIB);
        }
        let mut blocks = vec![CpuStatsColumns::new(); shape.nodes.clamp(1, 256)];
        for i in 0..population {
            let id = ContainerId::new(i as u64);
            let node = i % blocks.len();
            sharded
                .register_container(
                    id,
                    AppId::new(i as u64 % apps),
                    NodeId::new(node as u64),
                    1.0,
                    128 * MIB,
                )
                .expect("fresh ids");
            blocks[node].push(id, &stats_for(i, 0));
        }
        sharded.drain_actions_into(&mut actions);
        actions.clear();
        let rounds = passes(population);
        let mut entries = 0u64;
        let router = measure(tracer, "core.sharded.router", || {
            for _ in 0..rounds {
                for block in &blocks {
                    sharded.ingest_cpu_columns(block);
                }
            }
            // The drain waits for the workers; it is not router time.
            entries += (rounds * population) as u64;
            (rounds * population) as u64
        });
        sharded.drain_actions_into(&mut actions);
        actions.clear();
        let busiest = sharded
            .ingest_busy_per_shard()
            .into_iter()
            .max()
            .unwrap_or_default();
        let worker = busiest.as_nanos() as f64 / entries.max(1) as f64;
        if shards == 1 {
            out.insert("core.sharded.worker_ns_per_entry_s1", worker);
        } else {
            out.insert("core.sharded.router_ns_per_entry", router);
            out.insert("core.sharded.worker_ns_per_entry_s2", worker);
        }
    }

    // ---- agent
    {
        let mut cluster = plant.cluster().clone();
        let mut agents: Vec<Agent> = cluster
            .nodes()
            .iter()
            .map(|node| Agent::new(node.id()))
            .collect();
        let homes: Vec<usize> = ids
            .iter()
            .map(|&id| {
                cluster
                    .container(id)
                    .map_or(0, |c| c.node().as_u64() as usize)
            })
            .collect();
        let mut seq = 0u64;
        out.insert(
            "core.agent.apply_ns",
            measure(tracer, "core.agent.apply", || {
                for _ in 0..reps {
                    for (&container, &home) in ids.iter().zip(&homes) {
                        seq += 1;
                        agents[home].apply(
                            &mut cluster,
                            ToAgent::SetCpuQuota {
                                container,
                                quota_cores: 0.5 + (seq % 8) as f64 * 0.25,
                                seq,
                            },
                        );
                    }
                }
                (reps * n) as u64
            }),
        );
        out.insert(
            "core.agent.reclaim_sweep_ns_per_container",
            measure(tracer, "core.agent.reclaim_sweep", || {
                for _ in 0..reps {
                    for agent in &agents {
                        black_box(agent.reclaim_sweep(&mut cluster, 50 * MIB));
                    }
                }
                (reps * n) as u64
            }),
        );
    }

    // ---- net
    {
        let mut net: Network<u64> =
            Network::with_faults(LatencyModel::zero(), seed, shape.faults.clone());
        let (a, b) = (net.register(), net.register());
        let mut now = SimTime::ZERO;
        out.insert(
            "net.fabric.send_poll_ns",
            measure(tracer, "net.fabric.send_poll", || {
                now += SimDuration::from_secs(1);
                for i in 0..2048 {
                    net.send(now, a, b, i, 64);
                }
                black_box(net.poll(now + SimDuration::from_millis(500)).len());
                2048
            }),
        );
        let mut injector = FaultInjector::new(shape.faults.clone(), seed);
        out.insert(
            "net.fault.decide_ns",
            measure(tracer, "net.fault.decide", || {
                for _ in 0..8192 {
                    black_box(injector.decide(now, a, b));
                }
                8192
            }),
        );
        let mut accountant = BandwidthAccountant::new();
        out.insert(
            "net.accounting.record_ns",
            measure(tracer, "net.accounting.record", || {
                for i in 0..8192u64 {
                    now += SimDuration::from_millis(1);
                    accountant.record(now, 64 + i % 512);
                }
                8192
            }),
        );
    }

    // ---- baselines: one step = one observation per tracked container
    // plus the recommendation pass they share
    {
        let tracked = n.clamp(MIN_BLOCK_OPS as usize, 4096);
        let track_ids: Vec<ContainerId> = (0..tracked as u64).map(ContainerId::new).collect();
        let profiles: BTreeMap<ContainerId, ContainerProfile> = track_ids
            .iter()
            .map(|&id| {
                (
                    id,
                    ContainerProfile {
                        peak_cpu_cores: 0.8,
                        peak_mem_bytes: 200 * MIB,
                    },
                )
            })
            .collect();
        let scalers: [(&'static str, &'static str, Box<dyn PeriodicScaler>); 5] = [
            (
                "baselines.static.step_ns",
                "baselines.static.step",
                Box::new(StaticPolicy::from_profiles(&profiles, 1.5)),
            ),
            (
                "baselines.autopilot.step_ns",
                "baselines.autopilot.step",
                Box::new(AutopilotScaler::new(Default::default())),
            ),
            (
                "baselines.vpa.step_ns",
                "baselines.vpa.step",
                Box::new(VpaScaler::new(Default::default())),
            ),
            (
                "baselines.tiny.step_ns",
                "baselines.tiny.step",
                Box::new(TinyAutoscaler::new(Default::default())),
            ),
            (
                "baselines.arc_v.step_ns",
                "baselines.arc_v.step",
                Box::new(ArcVScaler::new(Default::default())),
            ),
        ];
        for (metric, span, mut scaler) in scalers {
            for &id in &track_ids {
                scaler.track(id, 1.0, 256 * MIB);
            }
            let mut second = 0u64;
            out.insert(
                metric,
                measure(tracer, span, || {
                    second += 1;
                    for (i, &id) in track_ids.iter().enumerate() {
                        scaler.observe(
                            id,
                            UsageSample {
                                cpu_cores: 0.2 + ((i as u64 + second) % 10) as f64 * 0.05,
                                mem_bytes: (96 + (i as u64 + second) % 32) * MIB,
                            },
                        );
                    }
                    black_box(scaler.recommend());
                    tracked as u64
                }),
            );
        }
    }

    // ---- model checker: states explored per second on its smallest
    // configuration (each state fingerprints the Controller and Agents)
    {
        let cfg = McConfig::tiny();
        let mut per_state = Vec::with_capacity(3);
        for _ in 0..3 {
            let start = Instant::now();
            let result = tracer.span("mc.explore", |_| {
                let r = explore(&cfg, Strategy::Bfs);
                let states = r.states as u64;
                (r, states)
            });
            per_state.push(start.elapsed().as_nanos() as f64 / result.states.max(1) as f64);
        }
        out.insert("mc.explore.states_per_s", 1e9 / fastest(per_state));
    }

    out
}
