//! Trace-driven mega-scenario driver.
//!
//! Instantiates one Distributed Container per traced app — every app of
//! a [`TraceWorkload`] (Azure-shaped CSV or synthetic population) gets
//! its own Escra app pool whose pods cold-start on demand, scale out
//! under queueing, and tear down after an idle timeout — and drives tens
//! of thousands of such apps across hundreds of nodes on the simcore
//! event heap.
//!
//! The loop reuses the machinery of the other drivers:
//!
//! * per-node **batched/columnar telemetry** on a [`ReportPlan`]-derived
//!   flush schedule (node `n` flushes every `period ×
//!   multipliers[n % len]`, phase-jittered per node);
//! * **idle fast-forward** across globally quiet stretches, replaying
//!   only the observable residue of each skipped window — controller
//!   ticks, per-second zero-limit samples, and crucially any node flush
//!   that falls due inside the skipped span, so jitter-desynchronized
//!   node timers are never jumped over (output is bit-identical with
//!   the flag off);
//! * the shared [`ServerlessStats`] recorders (cold starts, wasted
//!   resource-time, absolute exec/total slowdown) next to the paper's
//!   [`RunMetrics`].
//!
//! Scale comes from the *active set*: a window only touches apps that
//! currently hold pods or queued arrivals. Everything else sleeps in the
//! event heap as a single `Wake` entry per app at its next Poisson
//! arrival (piecewise-constant rate from the trace's per-minute grid;
//! the per-minute restart is exact by memorylessness).

use crate::microsim::ReportPlan;
use crate::pod_host::PodHost;
use crate::policy::BaselineScalerKind;
use escra_cfs::{node::arbitrate_into, CpuPeriodStats, MIB};
use escra_cluster::{AppId, ContainerId, ContainerSpec, NodeSpec};
use escra_core::telemetry::{
    CpuStatsColumns, CpuStatsEntry, CPU_STATS_ENTRY_BYTES, CPU_STATS_HEADER_BYTES,
};
use escra_core::{Action, Controller, EscraConfig};
use escra_metrics::{RunMetrics, ServerlessStats};
use escra_simcore::events::EventQueue;
use escra_simcore::rng::SimRng;
use escra_simcore::time::{SimDuration, SimTime};
use escra_workloads::{TraceApp, TraceWorkload};
use std::collections::VecDeque;

/// Maximum cores one traced invocation can exploit (mirrors the
/// serverless driver: some phases of real actions are parallel).
const TRACE_PARALLELISM: f64 = 1.2;

/// Configuration of one trace-driven run (typically one shard of the
/// `trace_mega` grid).
#[derive(Debug, Clone)]
pub struct TraceSimConfig {
    /// `Some` enables Escra management (one Distributed Container per
    /// traced app); `None` runs static per-pod limits.
    pub escra: Option<EscraConfig>,
    /// `Some` runs a [`PeriodicScaler`](escra_baselines::PeriodicScaler)
    /// baseline (tiny autoscaler or ARC-V) over the pod population —
    /// mutually exclusive with `escra`.
    pub baseline: Option<BaselineScalerKind>,
    /// Master seed; all per-app arrival/duration streams fork from it.
    pub seed: u64,
    /// Worker nodes.
    pub nodes: usize,
    /// Cores per node.
    pub node_cores: u32,
    /// Memory per node, in MiB.
    pub node_mem_mib: u64,
    /// Per-node telemetry flush schedule (multipliers + phase jitter).
    pub report_plan: ReportPlan,
    /// Flush telemetry as columnar datagrams (`CpuStatsColumns`) instead
    /// of row batches.
    pub columnar: bool,
    /// Fast-forward across globally idle windows (see module docs).
    pub fast_forward_idle: bool,
    /// Warm-pod teardown timeout.
    pub idle_timeout: SimDuration,
    /// Pod cold-start delay.
    pub cold_start: SimDuration,
    /// Static per-pod CPU limit, in cores.
    pub pod_cpu_cores: f64,
    /// Scale-out cap: at most this many concurrent pods per app.
    pub max_pods_per_app: usize,
    /// Run only the first N trace minutes (`None` = the whole trace).
    pub minutes_cap: Option<usize>,
}

impl TraceSimConfig {
    /// Paper-like defaults: Υ = 35 / growth cap 2.5 when Escra is on
    /// (short-lived actions, as in §VI-F), 48-core / 64 GiB nodes,
    /// OpenWhisk-style 500 ms cold starts and 60 s idle timeout,
    /// columnar telemetry on the aligned report plan.
    pub fn paper_like(escra: Option<EscraConfig>, seed: u64, nodes: usize) -> Self {
        TraceSimConfig {
            escra: escra.map(|c| {
                let mut c = c.with_upsilon(35.0);
                c.max_quota_growth_factor = 2.5;
                c
            }),
            baseline: None,
            seed,
            nodes,
            node_cores: 48,
            node_mem_mib: 64 * 1024,
            report_plan: ReportPlan::aligned(),
            columnar: true,
            fast_forward_idle: true,
            idle_timeout: SimDuration::from_secs(60),
            cold_start: SimDuration::from_millis(500),
            pod_cpu_cores: 1.0,
            max_pods_per_app: 8,
            minutes_cap: None,
        }
    }
}

/// Output of one trace-driven run.
#[derive(Debug)]
pub struct TraceSimOutput {
    /// The paper's metrics: per-invocation latency, slack distributions,
    /// aggregate limit series, OOM kills.
    pub metrics: RunMetrics,
    /// Serverless-style statistics (cold starts, wasted resource-time,
    /// absolute slowdowns).
    pub serverless: ServerlessStats,
    /// Live container report-periods simulated (the scale currency).
    pub container_periods: u64,
    /// Report-periods that ended throttled (throttle rate =
    /// `throttled_periods / container_periods`).
    pub throttled_periods: u64,
    /// Peak concurrent pods.
    pub peak_pods: usize,
    /// Pods cold-started over the run.
    pub pods_spawned: u64,
    /// Control-plane bytes (telemetry, registrations, OOM events;
    /// 0 without Escra).
    pub control_bytes: u64,
    /// Windows executed in full.
    pub rounds_executed: u64,
    /// Idle windows fast-forwarded across.
    pub rounds_fast_forwarded: u64,
}

#[derive(Debug, Clone, Copy)]
enum PodState {
    Starting,
    Idle {
        since: SimTime,
    },
    Exec {
        arrival: SimTime,
        exec_start: SimTime,
        work_us: f64,
        remaining_us: f64,
    },
}

#[derive(Debug)]
struct PodRt {
    cid: ContainerId,
    state: PodState,
    /// CPU-time consumed since the last 1 s sample, in µs — the usage
    /// integral a baseline scaler observes.
    sec_usage_us: f64,
}

#[derive(Debug)]
struct AppRt {
    rng_arrival: SimRng,
    rng_exec: SimRng,
    pods: Vec<PodRt>,
    pending: VecDeque<SimTime>,
    active: bool,
}

/// One node's unflushed telemetry, kept in the wire form the run ships
/// ([`TraceSimConfig::columnar`]) and reused across flushes.
#[derive(Debug)]
enum NodeBuf {
    Columns(CpuStatsColumns),
    Rows(Vec<CpuStatsEntry>),
}

impl NodeBuf {
    fn push(&mut self, container: ContainerId, stats: CpuPeriodStats) {
        match self {
            NodeBuf::Columns(cols) => cols.push(container, &stats),
            NodeBuf::Rows(rows) => rows.push(CpuStatsEntry { container, stats }),
        }
    }

    fn len(&self) -> usize {
        match self {
            NodeBuf::Columns(cols) => cols.len(),
            NodeBuf::Rows(rows) => rows.len(),
        }
    }

    /// Hands the buffered datagram to the Controller and empties the
    /// buffer, keeping its capacity.
    fn flush(&mut self, ctl: &mut Controller, now: SimTime, out: &mut Vec<Action>) {
        match self {
            NodeBuf::Columns(cols) => {
                ctl.ingest_cpu_columns_at(now, cols, out);
                cols.clear();
            }
            NodeBuf::Rows(rows) => {
                ctl.ingest_cpu_batch_at(now, rows, out);
                rows.clear();
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum TraceEv {
    /// A window close.
    Round,
    /// An arrival for app `i` (apps with no pods and no queue sleep in
    /// the heap as exactly one of these).
    Wake(u32),
}

/// Next arrival of `app` strictly after `from`, under the trace's
/// piecewise-constant per-minute rate. Exponential gaps are drawn at the
/// current minute's rate and re-drawn from each minute boundary the gap
/// crosses — exact for a Poisson process by memorylessness.
fn next_arrival(app: &TraceApp, rng: &mut SimRng, from: SimTime, end: SimTime) -> Option<SimTime> {
    let minute = SimDuration::from_secs(60);
    let mut t = from;
    while t < end {
        let rate = app.rate_at(t);
        let m = t.duration_since(SimTime::ZERO).as_micros() / 60_000_000;
        let minute_end = SimTime::ZERO + minute * (m + 1);
        if rate <= 1e-12 {
            t = minute_end;
            continue;
        }
        let cand = t + SimDuration::from_secs_f64(rng.exponential(rate));
        if cand < minute_end {
            return (cand < end).then_some(cand);
        }
        t = minute_end;
    }
    None
}

struct TraceSim<'a> {
    workload: &'a TraceWorkload,
    cfg: &'a TraceSimConfig,
    period: SimDuration,
    period_us: f64,
    end: SimTime,
    host: PodHost,
    apps: Vec<AppRt>,
    active: Vec<usize>,
    // Per-node telemetry buffers + their ReportPlan-derived schedule.
    node_buf: Vec<NodeBuf>,
    next_flush: Vec<SimTime>,
    node_period: Vec<SimDuration>,
    // Per-node busy pods `(app, pod)` of the current window and, in
    // step, their CPU demands.
    node_exec: Vec<Vec<(usize, usize)>>,
    node_want: Vec<Vec<f64>>,
    // Scratch reused by every window, so a steady-state round allocates
    // nothing: arbitration output + sort order.
    grants: Vec<f64>,
    order: Vec<usize>,
    serverless: ServerlessStats,
    total_pods: usize,
    peak_pods: usize,
    pods_spawned: u64,
    container_periods: u64,
    throttled_periods: u64,
    rounds_executed: u64,
    rounds_fast_forwarded: u64,
    t_final: SimTime,
}

/// Runs one trace-driven experiment.
pub fn run_trace_sim(workload: &TraceWorkload, cfg: &TraceSimConfig) -> TraceSimOutput {
    let mut sim = TraceSim::new(workload, cfg);
    sim.run()
}

impl<'a> TraceSim<'a> {
    fn new(workload: &'a TraceWorkload, cfg: &'a TraceSimConfig) -> Self {
        let minutes = cfg
            .minutes_cap
            .map(|cap| cap.min(workload.minutes))
            .unwrap_or(workload.minutes);
        let end = SimTime::ZERO + SimDuration::from_secs(60 * minutes as u64);
        let n_nodes = cfg.nodes.max(1);
        let nodes = vec![
            NodeSpec {
                cores: cfg.node_cores,
                mem_bytes: cfg.node_mem_mib * MIB,
            };
            n_nodes
        ];
        let mut host = PodHost::new(
            nodes,
            cfg.escra.as_ref(),
            cfg.baseline.as_ref(),
            "static-trace",
            "trace",
        );
        let period = host.period;
        if let Some(c) = host.controller.as_mut() {
            let scale_out = cfg.max_pods_per_app.max(1) as u64;
            for (i, app) in workload.apps.iter().enumerate() {
                // The Distributed Container's global limits: enough for a
                // fully scaled-out app at its static reservation.
                c.register_app(
                    AppId::new(i as u64),
                    cfg.pod_cpu_cores * scale_out as f64,
                    app.mem_mib * 2 * scale_out * MIB,
                );
            }
            for n in host.cluster.nodes() {
                c.note_node(n.id());
            }
        }
        let plan = &cfg.report_plan;
        let node_period: Vec<SimDuration> =
            (0..n_nodes).map(|n| plan.node_period(period, n)).collect();
        let next_flush = (0..n_nodes)
            .map(|n| SimTime::ZERO + plan.node_phase(period, cfg.seed, n) + node_period[n])
            .collect();
        let apps = (0..workload.apps.len())
            .map(|i| {
                let base = SimRng::new(cfg.seed)
                    .fork(0x7472_6373) /* "trcs" */
                    .fork(i as u64);
                AppRt {
                    rng_arrival: base.fork(0),
                    rng_exec: base.fork(1),
                    pods: Vec::new(),
                    pending: VecDeque::new(),
                    active: false,
                }
            })
            .collect();
        // One aggregate-limit sample per simulated second, known up
        // front: long sparse traces are mostly these two series.
        host.metrics.cpu_limit_series.reserve_exact(60 * minutes);
        host.metrics.mem_limit_series.reserve_exact(60 * minutes);
        TraceSim {
            workload,
            cfg,
            period,
            period_us: period.as_micros() as f64,
            end,
            host,
            apps,
            active: Vec::new(),
            node_buf: (0..n_nodes)
                .map(|_| {
                    if cfg.columnar {
                        NodeBuf::Columns(CpuStatsColumns::new())
                    } else {
                        NodeBuf::Rows(Vec::new())
                    }
                })
                .collect(),
            next_flush,
            node_period,
            node_exec: vec![Vec::new(); n_nodes],
            node_want: vec![Vec::new(); n_nodes],
            grants: Vec::new(),
            order: Vec::new(),
            serverless: ServerlessStats::new(),
            total_pods: 0,
            peak_pods: 0,
            pods_spawned: 0,
            container_periods: 0,
            throttled_periods: 0,
            rounds_executed: 0,
            rounds_fast_forwarded: 0,
            t_final: SimTime::ZERO,
        }
    }

    fn run(&mut self) -> TraceSimOutput {
        let mut q: EventQueue<TraceEv> = EventQueue::new();
        for i in 0..self.apps.len() {
            if let Some(at) = next_arrival(
                &self.workload.apps[i],
                &mut self.apps[i].rng_arrival,
                SimTime::ZERO,
                self.end,
            ) {
                // Key i+1: a Wake landing exactly on a window close pops
                // after that close's Round (key 0) — the arrival belongs
                // to the next window, the half-open contract.
                q.push_keyed(at, i as u64 + 1, TraceEv::Wake(i as u32));
            }
        }
        q.push_keyed(SimTime::ZERO + self.period, 0, TraceEv::Round);
        while let Some((t_ev, ev)) = q.pop() {
            match ev {
                TraceEv::Wake(i) => {
                    let i = i as usize;
                    self.apps[i].pending.push_back(t_ev);
                    if !self.apps[i].active {
                        self.apps[i].active = true;
                        self.active.push(i);
                    }
                    if let Some(at) = next_arrival(
                        &self.workload.apps[i],
                        &mut self.apps[i].rng_arrival,
                        t_ev,
                        self.end,
                    ) {
                        q.push_keyed(at, i as u64 + 1, TraceEv::Wake(i as u32));
                    }
                }
                TraceEv::Round => self.round(t_ev, &mut q),
            }
        }
        TraceSimOutput {
            metrics: self.host.finish(self.t_final),
            serverless: std::mem::take(&mut self.serverless),
            container_periods: self.container_periods,
            throttled_periods: self.throttled_periods,
            peak_pods: self.peak_pods,
            pods_spawned: self.pods_spawned,
            control_bytes: self.host.accountant.total_bytes(),
            rounds_executed: self.rounds_executed,
            rounds_fast_forwarded: self.rounds_fast_forwarded,
        }
    }

    /// One full window `[t_next - period, t_next)`, resolved at its close.
    ///
    /// Each phase below resolves a pod's container in the cluster once
    /// and works through that one borrow.
    fn round(&mut self, t_next: SimTime, q: &mut EventQueue<TraceEv>) {
        let t = t_next - self.period;
        self.rounds_executed += 1;
        self.host.cluster.tick(t);

        // Promote started pods; assign queued arrivals; scale out.
        for k in 0..self.active.len() {
            let ai = self.active[k];
            let app = &mut self.apps[ai];
            for pod in app.pods.iter_mut() {
                if matches!(pod.state, PodState::Starting)
                    && self
                        .host
                        .cluster
                        .container(pod.cid)
                        .is_some_and(|c| c.is_running())
                {
                    pod.state = PodState::Idle { since: t };
                }
                if let (PodState::Idle { .. }, Some(&arrival)) = (pod.state, app.pending.front()) {
                    app.pending.pop_front();
                    let work = self.workload.apps[ai].sample_exec_us(&mut app.rng_exec);
                    pod.state = PodState::Exec {
                        arrival,
                        exec_start: t,
                        work_us: work,
                        remaining_us: work,
                    };
                }
            }
            let cap = self.cfg.max_pods_per_app.max(1);
            let to_spawn = app.pending.len().min(cap.saturating_sub(app.pods.len()));
            for _ in 0..to_spawn {
                self.spawn_pod(ai, t);
            }
        }
        self.peak_pods = self.peak_pods.max(self.total_pods);

        // CPU: arbitrate execution among busy pods, per node.
        for k in 0..self.active.len() {
            let ai = self.active[k];
            for (pi, pod) in self.apps[ai].pods.iter().enumerate() {
                if let PodState::Exec { remaining_us, .. } = pod.state {
                    let c = self.host.cluster.container(pod.cid).expect("pod container");
                    if c.is_running() {
                        let node = c.node().as_u64() as usize;
                        self.node_exec[node].push((ai, pi));
                        self.node_want[node].push(
                            remaining_us
                                .min(TRACE_PARALLELISM * self.period_us)
                                .min(c.cpu.runtime_remaining_us()),
                        );
                    }
                }
            }
        }
        let capacity = self.cfg.node_cores as f64 * self.period_us;
        for node in 0..self.node_exec.len() {
            if self.node_exec[node].is_empty() {
                continue;
            }
            arbitrate_into(
                capacity,
                &self.node_want[node],
                &mut self.order,
                &mut self.grants,
            );
            for (&granted, &(ai, pi)) in self.grants.iter().zip(&self.node_exec[node]) {
                let pod = &mut self.apps[ai].pods[pi];
                let PodState::Exec {
                    arrival,
                    exec_start,
                    work_us,
                    remaining_us,
                } = &mut pod.state
                else {
                    unreachable!("only Exec pods are gathered");
                };
                let c = self
                    .host
                    .cluster
                    .container_mut(pod.cid)
                    .expect("pod container");
                c.cpu.consume(granted);
                let left = *remaining_us - granted;
                if left <= 1.0 {
                    // Completed mid-window; interpolate completion.
                    let frac = if granted > 0.0 {
                        (*remaining_us / granted).clamp(0.0, 1.0)
                    } else {
                        1.0
                    };
                    let done_at = t + self.period.mul_f64(frac);
                    let total = done_at.duration_since(*arrival);
                    self.serverless.record_completion(
                        SimDuration::from_secs_f64(*work_us / TRACE_PARALLELISM / 1e6),
                        done_at.duration_since(*exec_start),
                        total,
                    );
                    self.host.metrics.latency.record_success(total);
                    pod.state = PodState::Idle { since: done_at };
                } else {
                    if c.cpu.runtime_remaining_us() <= self.period_us * 0.01 {
                        c.cpu.mark_throttled();
                    }
                    *remaining_us = left;
                }
            }
            self.node_exec[node].clear();
            self.node_want[node].clear();
        }

        // Memory targets + OOM handling. A pass of its own, ahead of the
        // telemetry close: an OOM here can launch a reclamation sweep
        // that shrinks the limits of pods earlier in the order, and the
        // slack their period close records must see that.
        for k in 0..self.active.len() {
            let ai = self.active[k];
            for pi in 0..self.apps[ai].pods.len() {
                self.pod_memory(ai, pi, t_next);
            }
        }

        // Telemetry: close the CPU period for every pod; buffer stats of
        // running ones on their node (flushed on the node's schedule).
        let window_secs = self.period_us / 1e6;
        for k in 0..self.active.len() {
            let ai = self.active[k];
            for pod in self.apps[ai].pods.iter_mut() {
                let c = self
                    .host
                    .cluster
                    .container_mut(pod.cid)
                    .expect("pod container");
                let stats = c.cpu.end_period();
                pod.sec_usage_us += stats.usage_us;
                if !c.is_running() {
                    continue;
                }
                self.container_periods += 1;
                self.throttled_periods += stats.throttled as u64;
                self.serverless.record_wasted(
                    c.cpu.quota_cores() * window_secs - stats.usage_us / 1e6,
                    (c.mem.limit_bytes().saturating_sub(c.mem.usage_bytes())) as f64 / MIB as f64
                        * window_secs,
                );
                // The billing integral: what the pod *reserves* this
                // window, priced by metrics::cost.
                self.serverless.record_allocated(
                    c.cpu.quota_cores() * window_secs,
                    c.mem.limit_bytes() as f64 / MIB as f64 * window_secs,
                );
                if self.host.controller.is_some() {
                    self.node_buf[c.node().as_u64() as usize].push(pod.cid, stats);
                }
            }
        }
        self.flush_due(t_next);
        self.host.tick(t_next);

        // Idle-timeout teardown.
        for k in 0..self.active.len() {
            let pods = &mut self.apps[self.active[k]].pods;
            let mut pi = 0;
            while pi < pods.len() {
                let dead = matches!(pods[pi].state, PodState::Idle { since }
                    if t_next.duration_since(since) >= self.cfg.idle_timeout);
                if dead {
                    self.host.retire_pod(pods[pi].cid, t_next);
                    pods.swap_remove(pi);
                    self.total_pods -= 1;
                } else {
                    pi += 1;
                }
            }
        }

        self.host.sample_seconds(t_next, |see| {
            for &ai in &self.active {
                for pod in &mut self.apps[ai].pods {
                    see(pod.cid, &mut pod.sec_usage_us);
                }
            }
        });

        // Deactivate drained apps (their next arrival sleeps in the heap).
        let mut w = 0;
        for k in 0..self.active.len() {
            let ai = self.active[k];
            if self.apps[ai].pods.is_empty() && self.apps[ai].pending.is_empty() {
                self.apps[ai].active = false;
            } else {
                self.active[w] = ai;
                w += 1;
            }
        }
        self.active.truncate(w);
        self.t_final = t_next;

        // Schedule the next window, fast-forwarding across globally idle
        // spans. Each skipped window replays its observable residue —
        // node flushes that fall due (buffers can still hold entries of
        // just-torn-down pods), the controller tick, and the per-second
        // zero-limit samples — so a fast-forwarded run is bit-identical
        // to one executing every empty window, even under a jittered
        // report plan.
        let mut next_round = t_next + self.period;
        if self.cfg.fast_forward_idle && self.active.is_empty() {
            let horizon = q.peek_time().unwrap_or(self.end);
            while next_round <= horizon && next_round - self.period < self.end {
                self.flush_due(next_round);
                self.host.idle_window(next_round);
                self.rounds_fast_forwarded += 1;
                self.t_final = next_round;
                next_round += self.period;
            }
        }
        if next_round - self.period < self.end {
            q.push_keyed(next_round, 0, TraceEv::Round);
        }
    }

    /// Charges `pods[ai][pi]` toward its state's memory target. The
    /// in-flight invocation of a killed pod retries from scratch (fresh
    /// work draw on reassignment), queued ahead of newer arrivals.
    fn pod_memory(&mut self, ai: usize, pi: usize, now: SimTime) {
        let (app, rt) = (&self.workload.apps[ai], &mut self.apps[ai]);
        let pod = &mut rt.pods[pi];
        let target = match pod.state {
            PodState::Exec { .. } => app.mem_mib * MIB,
            _ => app.idle_mem_mib * MIB,
        };
        if self.host.charge_to(pod.cid, target, now) {
            if let PodState::Exec { arrival, .. } = pod.state {
                rt.pending.push_front(arrival);
            }
            pod.state = PodState::Starting;
        }
    }

    /// Flushes every node whose report timer fell due by `now`, as one
    /// batched (or columnar) datagram per node.
    fn flush_due(&mut self, now: SimTime) {
        for n in 0..self.node_buf.len() {
            let Some(ctl) = self.host.controller.as_mut() else {
                return;
            };
            if self.next_flush[n] > now {
                continue;
            }
            while self.next_flush[n] <= now {
                self.next_flush[n] += self.node_period[n];
            }
            let entries = self.node_buf[n].len() as u64;
            if entries == 0 {
                continue;
            }
            self.host.accountant.record(
                now,
                CPU_STATS_HEADER_BYTES + entries * CPU_STATS_ENTRY_BYTES,
            );
            self.node_buf[n].flush(ctl, now, &mut self.host.actions);
            self.host.drive_actions(now);
        }
    }

    /// Cold-starts one pod for app `ai`.
    fn spawn_pod(&mut self, ai: usize, now: SimTime) {
        let app = &self.workload.apps[ai];
        let spec = ContainerSpec::new(
            format!("{}-p{}", app.name, self.pods_spawned),
            AppId::new(ai as u64),
        )
        .with_cpu_limit(self.cfg.pod_cpu_cores)
        .with_mem_limit(app.mem_mib * 2 * MIB)
        .with_base_mem(app.idle_mem_mib.min(app.mem_mib) * MIB)
        .with_restart_delay(self.cfg.cold_start);
        self.apps[ai].pods.push(PodRt {
            cid: self.host.deploy_pod(spec, now),
            state: PodState::Starting,
            sec_usage_us: 0.0,
        });
        self.serverless.record_cold_start(self.cfg.cold_start);
        self.pods_spawned += 1;
        self.total_pods += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use escra_workloads::synthetic_trace::{mega_mix, synthetic_trace};

    /// Everything observable about a run except the driver counters.
    fn digest(out: &TraceSimOutput) -> String {
        format!(
            "{:?}|{:?}|{}|{}|{}|{}|{}",
            out.metrics,
            out.serverless,
            out.container_periods,
            out.throttled_periods,
            out.peak_pods,
            out.pods_spawned,
            out.control_bytes
        )
    }

    fn small_cfg(escra: bool, seed: u64) -> TraceSimConfig {
        let mut cfg = TraceSimConfig::paper_like(escra.then(EscraConfig::default), seed, 4);
        cfg.node_cores = 16;
        cfg
    }

    #[test]
    fn drives_a_synthetic_population() {
        let w = synthetic_trace(&mega_mix(60, 3, 11));
        let out = run_trace_sim(&w, &small_cfg(true, 11));
        assert!(
            out.serverless.invocations > 100,
            "{}",
            out.serverless.invocations
        );
        assert!(out.container_periods > 1_000);
        assert!(out.pods_spawned as usize >= out.peak_pods);
        assert!(out.serverless.cold_starts > 0);
        assert!(out.serverless.wasted_cpu_core_secs > 0.0);
        assert!(out.control_bytes > 0);
        assert_eq!(out.metrics.policy, "escra-trace");
    }

    #[test]
    fn deterministic_across_reruns() {
        let w = synthetic_trace(&mega_mix(40, 2, 5));
        let cfg = small_cfg(true, 5);
        let a = run_trace_sim(&w, &cfg);
        let b = run_trace_sim(&w, &cfg);
        assert_eq!(digest(&a), digest(&b));
    }

    /// A workload with a dead middle: arrivals in minutes 0 and 3 only,
    /// so pods tear down and the driver goes fully idle in between.
    fn gapped_workload(apps: usize) -> TraceWorkload {
        TraceWorkload {
            apps: (0..apps)
                .map(|i| TraceApp {
                    name: format!("gap-{i}"),
                    rpm: vec![30.0, 0.0, 0.0, 30.0],
                    exec_ms_mu: 50f64.ln(),
                    exec_ms_sigma: 0.5,
                    mem_mib: 64,
                    idle_mem_mib: 16,
                })
                .collect(),
            minutes: 4,
        }
    }

    #[test]
    fn fast_forward_is_bit_identical_under_jittered_report_plan() {
        // The adversarial case for idle fast-forward: node report timers
        // desynchronized by multipliers and phase jitter, so pods die
        // with telemetry still buffered and flushes fall due *inside*
        // the idle span. The skip must replay those flushes (and the
        // controller ticks) exactly.
        for columnar in [false, true] {
            let mut slow = small_cfg(true, 7);
            slow.report_plan = ReportPlan {
                period_multipliers: vec![1, 2, 5],
                jitter_frac: 0.9,
            };
            slow.columnar = columnar;
            slow.idle_timeout = SimDuration::from_secs(10);
            slow.fast_forward_idle = false;
            let mut fast = slow.clone();
            fast.fast_forward_idle = true;
            let w = gapped_workload(12);
            let a = run_trace_sim(&w, &slow);
            let b = run_trace_sim(&w, &fast);
            assert_eq!(
                digest(&a),
                digest(&b),
                "fast-forward divergence (columnar={columnar})"
            );
            assert_eq!(a.rounds_fast_forwarded, 0);
            assert!(
                b.rounds_fast_forwarded > 0,
                "the dead middle minutes should fast-forward"
            );
            assert_eq!(
                a.rounds_executed,
                b.rounds_executed + b.rounds_fast_forwarded
            );
        }
    }

    #[test]
    fn baseline_scalers_drive_the_trace_population() {
        use escra_baselines::{ArcVConfig, TinyAutoscalerConfig};
        let w = synthetic_trace(&mega_mix(60, 3, 13));
        let stat = run_trace_sim(&w, &small_cfg(false, 13));
        for kind in [
            BaselineScalerKind::Tiny(TinyAutoscalerConfig::default()),
            BaselineScalerKind::ArcV(ArcVConfig::default()),
        ] {
            let mut cfg = small_cfg(false, 13);
            cfg.baseline = Some(kind);
            let out = run_trace_sim(&w, &cfg);
            assert_eq!(out.metrics.policy, format!("{}-trace", kind.name()));
            assert!(
                out.serverless.invocations > 100,
                "{}: invocations {}",
                kind.name(),
                out.serverless.invocations
            );
            // Both scalers bill fewer resource-seconds than the static
            // reservation (the cost-efficiency claim in dollars).
            assert!(out.serverless.alloc_cpu_core_secs > 0.0);
            assert!(
                out.serverless.alloc_mem_mib_secs < stat.serverless.alloc_mem_mib_secs,
                "{}: alloc mem {} vs static {}",
                kind.name(),
                out.serverless.alloc_mem_mib_secs,
                stat.serverless.alloc_mem_mib_secs
            );
            // Reruns are deterministic.
            let again = run_trace_sim(&w, &cfg);
            assert_eq!(digest(&out), digest(&again));
        }
    }

    #[test]
    fn escra_undercuts_static_limits() {
        let w = synthetic_trace(&mega_mix(60, 3, 13));
        let stat = run_trace_sim(&w, &small_cfg(false, 13));
        let escra = run_trace_sim(&w, &small_cfg(true, 13));
        assert!(
            escra.metrics.cpu_limit_series.mean() < stat.metrics.cpu_limit_series.mean(),
            "escra {} vs static {}",
            escra.metrics.cpu_limit_series.mean(),
            stat.metrics.cpu_limit_series.mean()
        );
        assert!(
            escra.metrics.mem_limit_series.mean() < stat.metrics.mem_limit_series.mean(),
            "escra {} vs static {}",
            escra.metrics.mem_limit_series.mean(),
            stat.metrics.mem_limit_series.mean()
        );
        // Escra's wasted resource-time (quota slack) undercuts the
        // static reservation's.
        assert!(escra.serverless.wasted_cpu_core_secs < stat.serverless.wasted_cpu_core_secs);
    }
}
