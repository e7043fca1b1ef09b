//! The five workloads. Each is a closed loop on one thread doing a fixed
//! amount of work per repetition: nothing depends on the wall clock, so
//! every simulated statistic repeats bit for bit.
//!
//! One repetition is the workload's driver calls (timed together as the
//! driver wall) followed by its plant (timed per decision). On
//! `ctl_mixed` the plant *is* the workload.

use crate::inputs::{
    CtlInputs, HashWriter, MatrixInputs, MicroInputs, TraceInputs, CTL_EPOCHS_PER_REP,
    CTL_MEM_LIMIT, CTL_NODES,
};
use crate::plant::{decide, Plant, PlantInputs, PERIOD_US};
use crate::span::{LedgerRow, Tracer};
use escra_cluster::{AppId, ContainerId, NodeId};
use escra_core::telemetry::{
    CpuStatsColumns, ToAgent, ToController, CPU_STATS_ENTRY_BYTES, CPU_STATS_HEADER_BYTES,
    OOM_EVENT_WIRE_BYTES, REGISTER_WIRE_BYTES,
};
use escra_core::{Action, Controller, ControllerStats, EscraConfig, ReclaimEntry};
use escra_harness::serverless_sim::run_serverless;
use escra_harness::{run, run_trace_sim};
use escra_metrics::SlackRecorder;
use escra_simcore::histogram::LogHistogram;
use escra_simcore::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Named counts: what the driver reported and what the plant counted.
pub type Counts = BTreeMap<&'static str, f64>;

/// Per-layer numbers by metric name.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// What one repetition produced.
#[derive(Debug, Clone)]
pub struct RepOutput {
    /// Wall time of the driver calls, in seconds.
    pub driver_wall_s: f64,
    /// Live container-periods the driver simulated.
    pub container_periods: u64,
    /// *sim*: control-plane wire bytes.
    pub control_bytes: u64,
    /// *sim*: throttled container-periods.
    pub throttled: u64,
    /// *sim*: container-periods `throttled` is a share of.
    pub throttle_base: u64,
    /// *sim*: p99 of per-container CPU slack, in cores.
    pub slack_p99_cores: f64,
    /// Operations issued.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Hash of every output of the repetition.
    pub digest: u64,
    /// Pool conservation and limit ≥ usage held on the final state.
    pub state_ok: bool,
    /// Nanoseconds per decision, one value per timed group of decisions
    /// (`plant.rs`), in call order: sample `i` of one repetition timed
    /// the same calls on the same state as sample `i` of another.
    pub decisions: Vec<f32>,
    /// Driver and plant counts, for the ledger and the ratio metrics.
    pub counts: Counts,
}

/// One of the five workloads, set up and ready to repeat.
pub trait Workload {
    /// Sizes, for the run manifest.
    fn sizes(&self) -> String;

    /// Hash of the generated inputs, for the run manifest: two runs that
    /// print the same value measured the same work.
    fn inputs_fingerprint(&self) -> u64;

    /// Runs one repetition.
    fn rep(&mut self, tracer: &mut Tracer) -> RepOutput;

    /// The plant whose state the per-layer probes run on.
    fn plant_inputs(&self) -> &PlantInputs;

    /// Workload-specific correctness beyond digests and state checks,
    /// given the warm-up repetition's output.
    fn self_check(&self, _warmup: &RepOutput) -> bool {
        true
    }

    /// Ledger rows: how often this workload's driver used each layer
    /// (from `counts`), priced by the probes (`layers`).
    fn ledger_rows(&self, counts: &Counts, layers: &LayerValues) -> Vec<LedgerRow>;

    /// Per-layer metrics only the driver's outputs can give.
    fn driver_layers(&self, counts: &Counts, driver_wall_s: f64) -> LayerValues;
}

fn get(map: &BTreeMap<&'static str, f64>, key: &str) -> f64 {
    map.get(key).copied().unwrap_or(0.0)
}

fn row(layers: &LayerValues, layer: &'static str, ops: f64) -> LedgerRow {
    LedgerRow::new(layer, ops, get(layers, layer))
}

/// Runs the plant for one repetition and folds its outcome into `out`.
fn run_plant(
    inputs: &PlantInputs,
    tracer: &mut Tracer,
    digest: &mut HashWriter,
    out: &mut RepOutput,
) {
    let mut plant = Plant::new(inputs);
    tracer.span("plant.circuit", |_| {
        plant.run();
        ((), plant.counts.container_periods)
    });
    let _ = write!(digest, "|plant:{}", plant.summary());
    out.state_ok &= plant.invariants_hold();
    let c = plant.counts;
    let stats = plant.controller().stats();
    for (key, value) in [
        ("plant.charges", c.charges),
        ("plant.oom_traps", c.oom_traps),
        ("plant.entries", c.entries),
        ("plant.commands", c.commands),
        ("plant.stale", plant.stale_discarded()),
        ("plant.quota_updates", stats.quota_updates),
        ("plant.mem_grants", stats.mem_grants),
        ("plant.grant_retries", stats.grant_retries),
        (
            "plant.fault_decisions",
            c.commands + c.datagrams * u64::from(!inputs.shape.faults.is_none()),
        ),
        (
            "plant.fault_dropped",
            plant.command_fault_stats().dropped + plant.telemetry_fault_stats().dropped,
        ),
    ] {
        out.counts.insert(key, value as f64);
    }
    out.decisions = std::mem::take(&mut plant.samples);
}

/// Runs one driver call inside a span and adds its wall time to the
/// repetition's. `f` returns the call's output and the container-periods
/// it simulated.
fn driver_call<R>(
    out: &mut RepOutput,
    tracer: &mut Tracer,
    span: &str,
    f: impl FnOnce() -> (R, u64),
) -> R {
    let start = Instant::now();
    let result = tracer.span(span, |_| f());
    out.driver_wall_s += start.elapsed().as_secs_f64();
    result
}

fn empty_output() -> RepOutput {
    RepOutput {
        driver_wall_s: 0.0,
        container_periods: 0,
        control_bytes: 0,
        throttled: 0,
        throttle_base: 0,
        slack_p99_cores: 0.0,
        attempted: 0,
        failed: 0,
        digest: 0,
        state_ok: true,
        decisions: Vec::new(),
        counts: Counts::new(),
    }
}

/// Ratio metrics every plant provides, from its counters.
fn plant_ratios(counts: &Counts) -> LayerValues {
    let ratio = |num: &str, den: &str| {
        let d = get(counts, den);
        if d > 0.0 {
            get(counts, num) / d
        } else {
            0.0
        }
    };
    LayerValues::from([
        (
            "cfs.memory.oom_trap_frac",
            ratio("plant.oom_traps", "plant.charges"),
        ),
        (
            "core.controller.actions_per_entry",
            ratio("plant.quota_updates", "plant.entries"),
        ),
        (
            "core.controller.grant_retry_frac",
            ratio("plant.grant_retries", "plant.mem_grants"),
        ),
        (
            "core.agent.stale_discard_frac",
            ratio("plant.stale", "plant.commands"),
        ),
        (
            "net.fault.dropped_frac",
            ratio("plant.fault_dropped", "plant.fault_decisions"),
        ),
    ])
}

// ---------------------------------------------------------------- trace

/// `cluster.container(..)` calls the trace driver makes per live
/// container-period, counted in `trace_sim.rs` at the commit that added
/// this benchmark (promotion, exec collection, want, consume, memory ×2,
/// telemetry ×2). An estimate: the ledger has no way to count them.
const TRACE_LOOKUPS_PER_CP: f64 = 8.0;

/// `trace_dense` and `trace_sparse`: the same driver and code in
/// opposite regimes.
#[derive(Debug)]
pub struct TraceWorkloadRun {
    inputs: TraceInputs,
}

impl TraceWorkloadRun {
    /// Wraps generated inputs.
    pub fn new(inputs: TraceInputs) -> Self {
        TraceWorkloadRun { inputs }
    }
}

impl Workload for TraceWorkloadRun {
    fn sizes(&self) -> String {
        let w = &self.inputs.subs[0];
        format!(
            "{} sub-clusters x {} apps x {} trace-minutes (last one silent) on {} nodes; plant {} containers x {} periods",
            self.inputs.subs.len(),
            w.apps.len(),
            w.minutes,
            self.inputs.cfgs[0].nodes,
            self.inputs.plant.shape.containers,
            self.inputs.plant.shape.periods
        )
    }

    fn inputs_fingerprint(&self) -> u64 {
        self.inputs.fingerprint()
    }

    fn rep(&mut self, tracer: &mut Tracer) -> RepOutput {
        let mut out = empty_output();
        let mut digest = HashWriter::default();
        let mut slack = SlackRecorder::new();
        let (mut invocations, mut spawned, mut executed, mut skipped, mut oom_kills) =
            (0, 0, 0, 0, 0);
        let mut tick_visits = 0.0;
        let outs: Vec<_> = self
            .inputs
            .subs
            .iter()
            .zip(&self.inputs.cfgs)
            .map(|(w, cfg)| {
                driver_call(&mut out, tracer, "harness.trace_sim.run", || {
                    let o = run_trace_sim(w, cfg);
                    let cp = o.container_periods;
                    (o, cp)
                })
            })
            .collect();
        for o in &outs {
            let _ = write!(digest, "{o:?}");
            slack.merge(&o.metrics.slack);
            out.container_periods += o.container_periods;
            out.throttled += o.throttled_periods;
            out.control_bytes += o.control_bytes;
            invocations += o.serverless.invocations;
            spawned += o.pods_spawned;
            executed += o.rounds_executed;
            skipped += o.rounds_fast_forwarded;
            oom_kills += o.metrics.oom_kills;
            // `Cluster::tick` walks every pod ever deployed; the set
            // grows linearly over a run, so half the final count on average.
            tick_visits += o.rounds_executed as f64 * o.pods_spawned as f64 / 2.0;
        }
        out.throttle_base = out.container_periods;
        out.slack_p99_cores = slack.cpu_p(99.0);
        // The driver reports completions, not arrivals: every trace ends
        // in a silent minute so all issued invocations complete, and
        // `self_check` holds the total to the traces' expectation.
        out.attempted = invocations + oom_kills;
        out.failed = oom_kills;
        for (key, value) in [
            ("invocations", invocations),
            ("cold_starts", spawned),
            ("rounds_executed", executed),
            ("rounds_ff", skipped),
            ("entries", out.container_periods),
        ] {
            out.counts.insert(key, value as f64);
        }
        out.counts.insert("tick_visits", tick_visits);
        run_plant(&self.inputs.plant, tracer, &mut digest, &mut out);
        out.digest = digest.finish();
        out
    }

    fn plant_inputs(&self) -> &PlantInputs {
        &self.inputs.plant
    }

    fn ledger_rows(&self, c: &Counts, l: &LayerValues) -> Vec<LedgerRow> {
        let cp = get(c, "entries");
        let inv = get(c, "invocations");
        let pods = get(c, "cold_starts");
        let actions = cp * get(l, "core.controller.actions_per_entry");
        vec![
            row(l, "cfs.cpu.period_ns", cp),
            row(l, "cfs.memory.charge_ns", cp),
            row(l, "cluster.lookup_ns", cp * TRACE_LOOKUPS_PER_CP),
            row(l, "cluster.tick_ns_per_container", get(c, "tick_visits")),
            row(l, "cluster.deploy_terminate_ns", pods),
            row(l, "core.controller.register_pair_ns", pods),
            row(l, "core.telemetry.columns_push_ns", cp),
            row(l, "core.controller.ingest_columns_ns_per_entry", cp),
            row(l, "core.agent.apply_ns", actions),
            row(
                l,
                "simcore.events.push_pop_ns",
                inv + get(c, "rounds_executed"),
            ),
            row(l, "simcore.rng.exponential_ns", inv),
            row(l, "workloads.trace_workload.sample_exec_ns", inv),
            row(l, "metrics.serverless.completion_record_ns", inv),
            row(l, "metrics.recorders.latency_record_ns", inv),
            row(l, "metrics.recorders.slack_record_ns", cp / 10.0),
        ]
    }

    fn driver_layers(&self, c: &Counts, driver_wall_s: f64) -> LayerValues {
        let mut l = plant_ratios(c);
        let rounds = get(c, "rounds_executed") + get(c, "rounds_ff");
        l.insert("harness.trace_sim.wall_s", driver_wall_s);
        l.insert(
            "harness.trace_sim.cold_starts_per_invocation",
            get(c, "cold_starts") / get(c, "invocations").max(1.0),
        );
        l.insert(
            "harness.trace_sim.ff_round_frac",
            get(c, "rounds_ff") / rounds.max(1.0),
        );
        l
    }

    /// Completed invocations must lie within six standard deviations of
    /// the Poisson mean the traces imply — the only outside view of
    /// "every invocation issued also completed".
    fn self_check(&self, warmup: &RepOutput) -> bool {
        let mean = self.inputs.expected_invocations();
        (get(&warmup.counts, "invocations") - mean).abs() <= 6.0 * mean.sqrt() + 1.0
    }
}

// ---------------------------------------------------------------- micro

/// `cluster.container(..)` calls per container-period in `microsim`'s
/// round (grant, drain, account, memory), counted like
/// [`TRACE_LOOKUPS_PER_CP`].
const MICRO_LOOKUPS_PER_CP: f64 = 4.0;

/// `micro_scale`: many tiny nodes.
#[derive(Debug)]
pub struct MicroWorkloadRun {
    inputs: MicroInputs,
}

impl MicroWorkloadRun {
    /// Wraps generated inputs.
    pub fn new(inputs: MicroInputs) -> Self {
        MicroWorkloadRun { inputs }
    }
}

impl Workload for MicroWorkloadRun {
    fn sizes(&self) -> String {
        format!(
            "{} nodes x {} containers x {} simulated s (+10 s driver warm-up); plant {} periods",
            self.inputs.cfg.worker_nodes,
            self.inputs.cfg.app.container_count(),
            self.inputs.cfg.duration.as_micros() / 1_000_000,
            self.inputs.plant.shape.periods
        )
    }

    fn inputs_fingerprint(&self) -> u64 {
        self.inputs.fingerprint()
    }

    fn rep(&mut self, tracer: &mut Tracer) -> RepOutput {
        let mut out = empty_output();
        let mut digest = HashWriter::default();
        let containers = self.inputs.cfg.app.container_count() as u64;
        let o = driver_call(&mut out, tracer, "harness.microsim.run", || {
            let o = run(&self.inputs.cfg);
            let cp = o.sim.rounds * containers;
            (o, cp)
        });
        let _ = write!(
            digest,
            "{:?}|{:?}|{:?}|{:?}|{:?}",
            o.metrics, o.network, o.controller_stats, o.fault_stats, o.profiles
        );
        let stats = o.controller_stats.unwrap_or_default();
        out.container_periods = o.sim.rounds * containers;
        out.control_bytes = o.network.as_ref().map_or(0, |n| n.total_bytes());
        controller_throttling(&stats, &mut out);
        out.slack_p99_cores = o.metrics.slack.cpu_p(99.0);
        out.attempted =
            o.metrics.latency.successes() + o.metrics.latency.failures() + o.metrics.oom_kills;
        out.failed = o.metrics.latency.failures() + o.metrics.oom_kills;
        for (key, value) in [
            (
                "requests",
                o.metrics.latency.successes() + o.metrics.latency.failures(),
            ),
            ("heap_events", o.sim.heap_events),
            ("entries", stats.cpu_stats_ingested),
            ("quota_updates", stats.quota_updates),
            ("mem_grants", stats.mem_grants),
            (
                "node_rounds",
                o.sim.rounds * self.inputs.cfg.worker_nodes as u64,
            ),
            ("slack_samples", o.metrics.slack.count()),
        ] {
            out.counts.insert(key, value as f64);
        }
        run_plant(&self.inputs.plant, tracer, &mut digest, &mut out);
        out.digest = digest.finish();
        out
    }

    fn plant_inputs(&self) -> &PlantInputs {
        &self.inputs.plant
    }

    fn ledger_rows(&self, c: &Counts, l: &LayerValues) -> Vec<LedgerRow> {
        micro_ledger(c, l, get(c, "entries"))
    }

    fn driver_layers(&self, c: &Counts, driver_wall_s: f64) -> LayerValues {
        let mut l = plant_ratios(c);
        l.insert("harness.microsim.wall_s", driver_wall_s);
        l.insert(
            "harness.microsim.heap_events_per_cp",
            get(c, "heap_events") / get(c, "entries").max(1.0),
        );
        l
    }
}

/// `microsim` keeps its CFS throttle counters to itself, so on its two
/// workloads throttled periods are counted at the Controller: it answers
/// every throttled entry it ingests with exactly one scale-up as long as
/// the application's pool has head-room (`decide_at_slot`; a plant test
/// holds that count against the CFS counters), and these workloads never
/// exhaust their pools. Entries the fault plan lost are in neither count.
fn controller_throttling(stats: &ControllerStats, out: &mut RepOutput) {
    out.throttled += stats.scale_ups;
    out.throttle_base += stats.cpu_stats_ingested;
}

/// The microsim rows shared by `micro_scale` and `paper_matrix`;
/// `cp` is the container-periods of the Escra runs.
fn micro_ledger(c: &Counts, l: &LayerValues, cp: f64) -> Vec<LedgerRow> {
    let requests = get(c, "requests");
    let commands = get(c, "quota_updates") + get(c, "mem_grants");
    // One datagram per reporting node per round, one message per command.
    let messages = get(c, "node_rounds") + commands;
    vec![
        row(l, "simcore.events.push_pop_ns", get(c, "heap_events")),
        row(l, "workloads.generators.arrival_ns", requests),
        row(l, "harness.queueing.drain_fifo_ns_per_job", requests * 2.0),
        row(l, "cfs.node.arbitrate_ns_per_demand", cp),
        row(l, "cfs.cpu.period_ns", cp),
        row(l, "cfs.memory.charge_ns", cp),
        row(l, "cluster.lookup_ns", cp * MICRO_LOOKUPS_PER_CP),
        row(l, "core.telemetry.rows_push_ns", get(c, "entries")),
        row(l, "net.fault.decide_ns", messages),
        row(l, "net.accounting.record_ns", messages),
        row(
            l,
            "core.controller.ingest_batch_ns_per_entry",
            get(c, "entries"),
        ),
        row(l, "core.agent.apply_ns", commands),
        row(l, "metrics.recorders.latency_record_ns", requests),
        row(
            l,
            "metrics.recorders.slack_record_ns",
            get(c, "slack_samples"),
        ),
    ]
}

// --------------------------------------------------------------- matrix

/// `paper_matrix`: the paper's evaluation as one repetition.
#[derive(Debug)]
pub struct MatrixWorkloadRun {
    inputs: MatrixInputs,
}

impl MatrixWorkloadRun {
    /// Wraps generated inputs.
    pub fn new(inputs: MatrixInputs) -> Self {
        MatrixWorkloadRun { inputs }
    }
}

impl Workload for MatrixWorkloadRun {
    fn sizes(&self) -> String {
        let escra = self.inputs.cells.iter().filter(|c| c.escra).count();
        format!(
            "{} Escra cells x {} s under faults + {} baseline cells x {} s + {} serverless runs; plant {} containers x {} periods",
            escra,
            crate::inputs::MATRIX_ESCRA_SECS,
            self.inputs.cells.len() - escra,
            crate::inputs::MATRIX_BASELINE_SECS,
            self.inputs.serverless.len(),
            self.inputs.plant.shape.containers,
            self.inputs.plant.shape.periods
        )
    }

    fn inputs_fingerprint(&self) -> u64 {
        self.inputs.fingerprint()
    }

    fn rep(&mut self, tracer: &mut Tracer) -> RepOutput {
        let mut out = empty_output();
        let mut digest = HashWriter::default();
        let mut slack = SlackRecorder::new();
        // Accumulates straight into the repetition's named counts.
        let add = |counts: &mut Counts, key: &'static str, by: u64| {
            *counts.entry(key).or_insert(0.0) += by as f64;
        };
        let (mut escra_cp, mut baseline_cp, mut serverless_cp) = (0u64, 0u64, 0u64);
        let mut baseline_failed = 0u64;
        let mut slack_samples = 0u64;
        for cell in &self.inputs.cells {
            let containers = cell.cfg.app.container_count() as u64;
            let o = driver_call(&mut out, tracer, "harness.microsim.run", || {
                let o = run(&cell.cfg);
                let cp = o.sim.rounds * containers;
                (o, cp)
            });
            let _ = write!(
                digest,
                "{:?}|{:?}|{:?}|{:?}",
                o.metrics, o.network, o.controller_stats, o.fault_stats
            );
            let cp = o.sim.rounds * containers;
            let issued = o.metrics.latency.successes() + o.metrics.latency.failures();
            let failed = o.metrics.latency.failures() + o.metrics.oom_kills;
            add(&mut out.counts, "requests", issued);
            add(&mut out.counts, "heap_events", o.sim.heap_events);
            slack_samples += o.metrics.slack.count();
            if cell.escra {
                let stats = o.controller_stats.unwrap_or_default();
                escra_cp += cp;
                slack.merge(&o.metrics.slack);
                out.control_bytes += o.network.as_ref().map_or(0, |n| n.total_bytes());
                controller_throttling(&stats, &mut out);
                out.attempted += issued + o.metrics.oom_kills;
                out.failed += failed;
                add(&mut out.counts, "entries", stats.cpu_stats_ingested);
                add(&mut out.counts, "quota_updates", stats.quota_updates);
                add(&mut out.counts, "mem_grants", stats.mem_grants);
                add(
                    &mut out.counts,
                    "node_rounds",
                    o.sim.rounds * cell.cfg.worker_nodes as u64,
                );
            } else {
                // A baseline's timeouts and OOM kills are the paper's
                // result, not a malfunction of the system under test.
                baseline_cp += cp;
                baseline_failed += failed;
            }
        }
        let microsim_wall = out.driver_wall_s;
        for s in &self.inputs.serverless {
            let o = driver_call(&mut out, tracer, "harness.serverless_sim.run", || {
                let o = run_serverless(&s.cfg, &s.profile);
                // One slack sample per live pod per second, ten periods each.
                let cp = o.metrics.slack.count() * 10;
                (o, cp)
            });
            let _ = write!(digest, "{o:?}");
            let cp = o.metrics.slack.count() * 10;
            serverless_cp += cp;
            slack_samples += o.metrics.slack.count();
            if s.cfg.escra.is_some() {
                escra_cp += cp;
                slack.merge(&o.metrics.slack);
                out.control_bytes += o.network.as_ref().map_or(0, |n| n.total_bytes());
                out.attempted += o.metrics.latency.successes()
                    + o.metrics.latency.failures()
                    + o.metrics.oom_kills;
                out.failed += o.metrics.latency.failures() + o.metrics.oom_kills;
            } else {
                baseline_cp += cp;
                baseline_failed += o.metrics.latency.failures() + o.metrics.oom_kills;
            }
        }
        let serverless_wall = out.driver_wall_s - microsim_wall;
        let _ = write!(digest, "|baseline_failed:{baseline_failed}");
        out.container_periods = escra_cp + baseline_cp;
        out.slack_p99_cores = slack.cpu_p(99.0);
        for (key, value) in [
            ("slack_samples", slack_samples as f64),
            ("escra_cp", escra_cp as f64),
            ("baseline_cp", baseline_cp as f64),
            ("serverless_cp", serverless_cp as f64),
            ("baseline_failed", baseline_failed as f64),
            ("serverless_wall_s", serverless_wall),
        ] {
            out.counts.insert(key, value);
        }
        run_plant(&self.inputs.plant, tracer, &mut digest, &mut out);
        out.digest = digest.finish();
        out
    }

    fn plant_inputs(&self) -> &PlantInputs {
        &self.inputs.plant
    }

    fn ledger_rows(&self, c: &Counts, l: &LayerValues) -> Vec<LedgerRow> {
        let all_cp = get(c, "escra_cp") + get(c, "baseline_cp");
        // Queueing, CFS and cluster rows cover every cell; the
        // control-plane rows only the Escra ones.
        let mut rows = micro_ledger(c, l, all_cp);
        // A periodic scaler observes every container once a second; the
        // five policies share the baseline cells evenly.
        let steps = (get(c, "baseline_cp") - get(c, "serverless_cp") / 2.0).max(0.0) / 10.0 / 5.0;
        for layer in [
            "baselines.static.step_ns",
            "baselines.autopilot.step_ns",
            "baselines.vpa.step_ns",
            "baselines.tiny.step_ns",
            "baselines.arc_v.step_ns",
        ] {
            rows.push(row(l, layer, steps));
        }
        rows.push(row(l, "core.controller.oom_event_ns", get(c, "mem_grants")));
        rows.push(row(l, "core.controller.limit_ack_ns", get(c, "mem_grants")));
        rows
    }

    fn driver_layers(&self, c: &Counts, driver_wall_s: f64) -> LayerValues {
        let mut l = plant_ratios(c);
        let serverless = get(c, "serverless_wall_s");
        l.insert("harness.microsim.wall_s", driver_wall_s - serverless);
        l.insert("harness.serverless_sim.wall_s", serverless);
        l.insert(
            "harness.microsim.heap_events_per_cp",
            get(c, "heap_events")
                / (get(c, "escra_cp") + get(c, "baseline_cp") - get(c, "serverless_cp")).max(1.0),
        );
        l
    }
}

// ------------------------------------------------------------------ ctl

/// Where a batch of actions came from, which decides what the bench —
/// standing in for the Agents — answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// Telemetry ingest or registration: apply, answer nothing.
    Quiet,
    /// An OOM event: ack the grant, except every 16th (a lost ack).
    Oom,
    /// `tick_into`: ack retried grants, answer sweeps with reports.
    Tick,
}

/// Every how many periods the replay samples per-container CPU slack
/// (once a simulated second, as the drivers' `SlackRecorder` does).
const CTL_SLACK_EVERY: usize = 10;

/// `ctl_mixed`: the Controller alone.
#[derive(Debug)]
pub struct CtlWorkloadRun {
    inputs: CtlInputs,
    /// The plant the probes run on: `ctl_mixed`'s node shape, one
    /// period's worth of containers.
    probe_plant: PlantInputs,
}

/// The replay's moving parts (one per repetition): the Controller and a
/// slim stand-in for the nodes — per container the CPU quota and memory
/// limit it currently runs with. The loop is closed: a period's
/// datagrams report the generated demand against the quota the
/// Controller last granted.
struct CtlReplay<'a> {
    inputs: &'a CtlInputs,
    controller: Controller,
    /// CPU quota each container runs with, in millicores, by raw id.
    quota_mcores: Vec<u32>,
    /// Memory limit each container runs with, by raw id.
    limits: Vec<u64>,
    /// Containers granted memory since the last sweep, per node.
    granted: Vec<Vec<u32>>,
    /// This period's datagrams, one per node.
    blocks: Vec<CpuStatsColumns>,
    actions: Vec<Action>,
    scratch: Vec<Action>,
    samples: Vec<f32>,
    grants: u64,
    counts: CtlCounts,
    /// Per-container quota minus usage, sampled every
    /// [`CTL_SLACK_EVERY`] periods.
    slack: LogHistogram,
    /// Wall time spent building datagrams — the bench's share of a
    /// period, kept out of the repetition's wall — in nanoseconds.
    encode_ns: u64,
    /// Wall time inside the per-period datagram loops, in nanoseconds
    /// (host time: kept out of `counts`, which feed the digest).
    ingest_ns: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct CtlCounts {
    entries: u64,
    throttled: u64,
    messages: u64,
    quota_actions: u64,
    oom_events: u64,
    acks: u64,
    withheld: u64,
    reports: u64,
    report_entries: u64,
    registers: u64,
    ticks: u64,
    kills: u64,
    wire_bytes: u64,
}

impl CtlWorkloadRun {
    /// Wraps generated inputs.
    pub fn new(inputs: CtlInputs, seed: u64) -> Self {
        let probe_plant = PlantInputs::generate(
            crate::plant::PlantShape {
                nodes: CTL_NODES,
                node_cores: 96,
                containers: inputs.containers.len(),
                apps: inputs.apps.len(),
                columnar: true,
                report_multipliers: vec![1],
                faults: escra_net::FaultPlan::none(),
                churn_every: 0,
                periods: 0,
                decisions_per_sample: 1,
            },
            seed,
        );
        CtlWorkloadRun {
            inputs,
            probe_plant,
        }
    }

    /// Registers every app and container on a fresh Controller.
    pub fn build_controller(inputs: &CtlInputs) -> Controller {
        let mut controller = Controller::new(EscraConfig::default());
        for (a, &(cpu, mem)) in inputs.apps.iter().enumerate() {
            controller.register_app(AppId::new(a as u64), cpu, mem);
        }
        for (i, c) in inputs.containers.iter().enumerate() {
            controller
                .register_container(
                    ContainerId::new(i as u64),
                    AppId::new(c.app as u64),
                    NodeId::new(c.node as u64),
                    c.quota_mcores as f64 / 1000.0,
                    CTL_MEM_LIMIT,
                )
                .expect("generated registry is consistent");
        }
        controller
    }
}

impl<'a> CtlReplay<'a> {
    fn new(inputs: &'a CtlInputs) -> Self {
        CtlReplay {
            controller: CtlWorkloadRun::build_controller(inputs),
            quota_mcores: inputs.containers.iter().map(|c| c.quota_mcores).collect(),
            limits: vec![CTL_MEM_LIMIT; inputs.containers.len()],
            granted: vec![Vec::new(); CTL_NODES],
            blocks: vec![CpuStatsColumns::new(); CTL_NODES],
            actions: Vec::new(),
            scratch: Vec::new(),
            samples: Vec::new(),
            grants: 0,
            counts: CtlCounts::default(),
            slack: LogHistogram::new(),
            encode_ns: 0,
            ingest_ns: 0,
            inputs,
        }
    }

    /// Carries out `self.actions` as the Agents would, feeding acks and
    /// sweep reports back.
    fn answer(&mut self, now: SimTime, source: Source) {
        for i in 0..self.actions.len() {
            let (node, cmd) = match self.actions[i] {
                Action::KillContainer(_) => {
                    self.counts.kills += 1;
                    continue;
                }
                Action::Agent { node, cmd } => (node, cmd),
            };
            self.counts.wire_bytes += cmd.wire_bytes();
            match cmd {
                ToAgent::SetCpuQuota {
                    container,
                    quota_cores,
                    ..
                } => {
                    self.counts.quota_actions += 1;
                    // Millicore-exact, like every quota on the columnar wire.
                    self.quota_mcores[container.as_u64() as usize] =
                        (quota_cores * 1000.0).round() as u32;
                }
                ToAgent::SetMemLimit {
                    container,
                    limit_bytes,
                    seq,
                } => {
                    let raw = container.as_u64() as usize;
                    if limit_bytes > self.limits[raw] {
                        self.granted[node.as_u64() as usize].push(raw as u32);
                    }
                    self.limits[raw] = limit_bytes;
                    if source == Source::Quiet {
                        continue;
                    }
                    if source == Source::Oom {
                        self.grants += 1;
                        if self.grants.is_multiple_of(16) {
                            // The grant applies but its ack is lost: the
                            // retry timer re-sends it 500 ms later.
                            self.counts.withheld += 1;
                            continue;
                        }
                    }
                    self.counts.acks += 1;
                    self.counts.messages += 1;
                    decide!(
                        self.samples,
                        self.controller.handle_into(
                            now,
                            ToController::LimitAck { container, seq },
                            &mut self.scratch,
                        )
                    );
                }
                ToAgent::ReclaimMemory { .. } => {
                    // The sweep shrinks every limit a grant raised back
                    // to the start limit.
                    let n = node.as_u64() as usize;
                    let mut entries = Vec::with_capacity(self.granted[n].len());
                    for raw in std::mem::take(&mut self.granted[n]) {
                        let limit = self.limits[raw as usize];
                        if limit > CTL_MEM_LIMIT {
                            entries.push(ReclaimEntry {
                                container: ContainerId::new(raw as u64),
                                new_limit_bytes: CTL_MEM_LIMIT,
                                psi_bytes: limit - CTL_MEM_LIMIT,
                            });
                            self.limits[raw as usize] = CTL_MEM_LIMIT;
                        }
                    }
                    if entries.is_empty() {
                        continue;
                    }
                    self.counts.reports += 1;
                    self.counts.messages += 1;
                    self.counts.report_entries += entries.len() as u64;
                    let more = decide!(
                        self.samples,
                        self.controller.on_reclaim_report(now, &entries)
                    );
                    self.scratch.extend(more);
                }
            }
        }
        self.actions.clear();
        // Acks emit nothing and no OOM is ever parked behind a sweep
        // here, so a follow-up action means the books went wrong.
        self.counts.kills += self.scratch.len() as u64;
        self.scratch.clear();
    }

    /// Replays period `p` of the epoch at simulated time `now`;
    /// `sample_slack` on the periods whose slack is recorded.
    fn period(&mut self, p: usize, now: SimTime, sample_slack: bool, tracer: &mut Tracer) {
        let inputs = self.inputs;
        for &raw in &inputs.churn[p] {
            let c = inputs.containers[raw as usize];
            let container = ContainerId::new(raw as u64);
            let _ = self.controller.deregister_container(container);
            self.counts.registers += 1;
            self.counts.messages += 1;
            self.counts.wire_bytes += REGISTER_WIRE_BYTES;
            decide!(
                self.samples,
                self.controller.handle_into(
                    now,
                    ToController::Register {
                        container,
                        app: AppId::new(c.app as u64),
                        node: NodeId::new(c.node as u64),
                    },
                    &mut self.actions,
                )
            );
            self.answer(now, Source::Quiet);
        }

        // The nodes' side of the period: demand meets the granted quota.
        let encode_start = Instant::now();
        tracer.span("bench.ctl_mixed.encode", |_| {
            let throttled = inputs.encode_period(p, &self.quota_mcores, &mut self.blocks);
            self.counts.throttled += throttled;
            if sample_slack {
                for block in &self.blocks {
                    for &unused_us in &block.unused_us {
                        self.slack.record(unused_us as f64 / PERIOD_US as f64);
                    }
                }
            }
            ((), inputs.containers.len() as u64)
        });
        self.encode_ns += encode_start.elapsed().as_nanos() as u64;

        let ingest_start = Instant::now();
        tracer.span("core.controller.ingest_columns", |_| {
            let mut entries = 0u64;
            for n in 0..self.blocks.len() {
                let len = self.blocks[n].len() as u64;
                entries += len;
                self.counts.wire_bytes += CPU_STATS_HEADER_BYTES + len * CPU_STATS_ENTRY_BYTES;
                decide!(
                    self.samples,
                    self.controller
                        .ingest_cpu_columns_at(now, &self.blocks[n], &mut self.actions)
                );
                self.answer(now, Source::Quiet);
            }
            self.counts.entries += entries;
            self.counts.messages += self.blocks.len() as u64;
            ((), entries)
        });
        self.ingest_ns += ingest_start.elapsed().as_nanos() as u64;
        for &(raw, shortfall_bytes) in &inputs.ooms[p] {
            self.counts.oom_events += 1;
            self.counts.messages += 1;
            self.counts.wire_bytes += OOM_EVENT_WIRE_BYTES;
            decide!(
                self.samples,
                self.controller.handle_into(
                    now,
                    ToController::OomEvent {
                        container: ContainerId::new(raw as u64),
                        shortfall_bytes,
                        current_limit_bytes: self.limits[raw as usize],
                    },
                    &mut self.actions,
                )
            );
            self.answer(now, Source::Oom);
        }
        self.counts.ticks += 1;
        self.controller.tick_into(now, &mut self.actions);
        self.answer(now, Source::Tick);
    }
}

impl Workload for CtlWorkloadRun {
    fn sizes(&self) -> String {
        format!(
            "{} apps / {} containers on {} nodes; {} epochs x {} periods = {} entries per repetition",
            self.inputs.apps.len(),
            self.inputs.containers.len(),
            CTL_NODES,
            CTL_EPOCHS_PER_REP,
            self.inputs.demand_us.len(),
            CTL_EPOCHS_PER_REP as u64
                * self.inputs.demand_us.len() as u64
                * self.inputs.containers.len() as u64
        )
    }

    fn inputs_fingerprint(&self) -> u64 {
        self.inputs.fingerprint()
    }

    fn rep(&mut self, tracer: &mut Tracer) -> RepOutput {
        let mut out = empty_output();
        let mut replay = CtlReplay::new(&self.inputs);
        let periods = self.inputs.demand_us.len();
        let start = Instant::now();
        for epoch in 0..CTL_EPOCHS_PER_REP {
            for p in 0..periods {
                let index = epoch * periods + p + 1;
                let now = SimTime::ZERO + SimDuration::from_micros(index as u64 * PERIOD_US);
                tracer.span("core.controller.period", |tracer| {
                    let before = replay.counts.messages;
                    replay.period(p, now, index.is_multiple_of(CTL_SLACK_EVERY), tracer);
                    ((), replay.counts.messages - before)
                });
            }
        }
        // The repetition's wall is the Controller's: building the
        // datagrams is the nodes' work, which this workload leaves out.
        out.driver_wall_s = start.elapsed().as_secs_f64() - replay.encode_ns as f64 / 1e9;

        let c = replay.counts;
        let stats = replay.controller.stats();
        out.container_periods = c.entries;
        out.control_bytes = c.wire_bytes;
        out.throttled = c.throttled;
        out.throttle_base = c.entries;
        out.slack_p99_cores = replay.slack.percentile(99.0);
        let allocator = replay.controller.allocator();
        let mut conserved = true;
        for raw in 0..self.inputs.containers.len() {
            let id = ContainerId::new(raw as u64);
            // The books and the nodes agree: the tracked quota is the one
            // the container runs with, and the tracked memory limit never
            // falls below the enforced one.
            conserved &= allocator.quota_of(id).is_some_and(|tracked| {
                (tracked * 1000.0).round() as u32 == replay.quota_mcores[raw]
            }) && allocator
                .mem_limit_of(id)
                .is_some_and(|tracked| tracked >= replay.limits[raw]);
        }
        for a in 0..self.inputs.apps.len() {
            let app = AppId::new(a as u64);
            let pool = allocator.app_pool(app).expect("registered app");
            let cpu = allocator.tracked_cpu_sum(app);
            conserved &= (cpu - pool.allocated_cpu_cores()).abs() <= 1e-6 * cpu.max(1.0)
                && pool.allocated_cpu_cores() <= pool.cpu_limit_cores() + 1e-9
                && allocator.tracked_mem_sum(app) == pool.allocated_mem_bytes()
                && pool.allocated_mem_bytes() <= pool.mem_limit_bytes();
        }
        out.state_ok = conserved;
        out.attempted = c.messages;
        // Rejected registrations, fatal or abandoned grants and kills;
        // every id in the stream stays registered, so no message is
        // dropped as unknown.
        out.failed = stats.register_errors + stats.ooms_fatal + stats.grants_abandoned + c.kills;
        let mut digest = HashWriter::default();
        let _ = write!(digest, "{c:?}|{stats:?}|{}", replay.samples.len());
        let _ = write!(digest, "|{:?}", out.slack_p99_cores);
        out.digest = digest.finish();
        for (key, value) in [
            ("entries", c.entries),
            ("plant.entries", c.entries),
            ("plant.quota_updates", stats.quota_updates),
            ("plant.mem_grants", stats.mem_grants),
            ("plant.grant_retries", stats.grant_retries),
            ("oom_events", c.oom_events),
            ("acks", c.acks),
            ("report_entries", c.report_entries),
            ("registers", c.registers),
            ("ticks", c.ticks),
            ("messages", c.messages),
        ] {
            out.counts.insert(key, value as f64);
        }
        out.counts.insert("ingest_ns", replay.ingest_ns as f64);
        out.decisions = std::mem::take(&mut replay.samples);
        out
    }

    fn plant_inputs(&self) -> &PlantInputs {
        &self.probe_plant
    }

    /// The columnar and the row-batch form of the same stream must emit
    /// identical actions.
    fn self_check(&self, _warmup: &RepOutput) -> bool {
        let mut columnar = CtlWorkloadRun::build_controller(&self.inputs);
        let mut rows = columnar.clone();
        let quotas: Vec<u32> = self
            .inputs
            .containers
            .iter()
            .map(|c| c.quota_mcores)
            .collect();
        let mut blocks = vec![CpuStatsColumns::new(); CTL_NODES];
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for p in 0..self.inputs.demand_us.len().min(6) {
            let now = SimTime::from_millis(100 * (p as u64 + 1));
            self.inputs.encode_period(p, &quotas, &mut blocks);
            for block in &blocks {
                columnar.ingest_cpu_columns_at(now, block, &mut a);
                rows.ingest_cpu_batch_at(now, &block.to_entries(), &mut b);
            }
        }
        !a.is_empty() && a == b && columnar.stats() == rows.stats()
    }

    fn ledger_rows(&self, c: &Counts, l: &LayerValues) -> Vec<LedgerRow> {
        vec![
            row(
                l,
                "core.controller.ingest_columns_ns_per_entry",
                get(c, "entries"),
            ),
            row(l, "core.controller.oom_event_ns", get(c, "oom_events")),
            row(l, "core.controller.limit_ack_ns", get(c, "acks")),
            row(
                l,
                "core.controller.reclaim_report_ns_per_entry",
                get(c, "report_entries"),
            ),
            row(l, "core.controller.tick_ns", get(c, "ticks")),
            row(l, "core.controller.register_pair_ns", get(c, "registers")),
            // Two clock reads around every decision.
            row(l, "bench.timer_ns", get(c, "messages")),
        ]
    }

    fn driver_layers(&self, c: &Counts, _driver_wall_s: f64) -> LayerValues {
        let mut l = plant_ratios(c);
        // Here the plant is the workload, so the ingest cost is measured
        // in place — on the replayed stream, actions and all — rather
        // than by the probe's synthetic telemetry.
        l.insert(
            "core.controller.ingest_columns_ns_per_entry",
            get(c, "ingest_ns") / get(c, "entries").max(1.0),
        );
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctl_replay_repeats_keeps_the_books_and_fails_nothing() {
        let mut run = CtlWorkloadRun::new(CtlInputs::generate_sized(5, 40, 12), 5);
        let mut tracer = Tracer::new(true);
        let a = run.rep(&mut tracer);
        let b = run.rep(&mut tracer);
        assert_eq!(a.digest, b.digest, "identical work, identical output");
        assert!(
            a.state_ok,
            "pool conservation on the final Controller state"
        );
        assert_eq!(a.failed, 0);
        assert!(a.attempted > 0 && a.container_periods > 0);
        assert!(get(&a.counts, "oom_events") > 0.0 && get(&a.counts, "acks") > 0.0);
        assert!(
            get(&a.counts, "report_entries") > 0.0,
            "sweeps returned memory"
        );
        assert!(
            get(&a.counts, "plant.grant_retries") > 0.0,
            "withheld acks are retried"
        );
        assert_eq!(a.decisions.len() as u64, a.attempted);
        assert!(run.self_check(&a), "columnar and row forms decide alike");
        // The Controller's spans cover the replay.
        let periods = crate::span::totals(tracer.spans(), "core.controller.period");
        let ingest = crate::span::totals(tracer.spans(), "core.controller.ingest_columns");
        assert_eq!(ingest.1, 2 * a.container_periods);
        assert!(periods.0 >= ingest.0);
    }
}
