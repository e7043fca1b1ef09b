//! The microservice experiment simulator.
//!
//! Drives a modelled application (`escra_workloads::microservice`) on a
//! simulated cluster under one of the [`Policy`] variants and produces
//! the paper's metrics. The run is a discrete-event schedule on
//! [`escra_simcore::events::EventQueue`]: fluid windows close on `Round`
//! events, report timers — one per distinct node schedule, see
//! [`ReportPlan`] and `ReportCohorts` — flush telemetry, request timeouts
//! expire at exactly `arrival + timeout` via `Timeout` events (kept in a
//! FIFO lane beside the heap, see `pop_next`), and background work
//! arrives on per-container exponential `Background` chains whose rate
//! does not depend on the report period. Idle nodes schedule nothing and
//! cost nothing.
//!
//! Each fluid window performs, in order:
//!
//! 1. generate request arrivals for the window;
//! 2. arbitrate CPU per node (max–min fair, quota-capped);
//! 3. drain container queues in DAG order (fluid FIFO — throttling
//!    becomes queueing delay);
//! 4. account CFS usage, mark quota-bound throttles;
//! 5. update memory demand, trapping or suffering OOMs per policy;
//! 6. emit per-period telemetry to the Escra controller, or per-second
//!    samples to the baseline scalers;
//! 7. sample slack and aggregate limits every second.
//!
//! # Determinism
//!
//! Runs are bit-for-bit reproducible. All randomness forks off the
//! master seed with fixed labels (service times, background chains,
//! report jitter, workload arrivals), and every event carries a
//! canonical key `(priority << 48) | entity`, so the pop order at equal
//! timestamps is a pure function of the schedule — independent of push
//! interleaving. At one instant the order is: `Round` (close the
//! window), `Timeout` (per request id), `Background` (per container),
//! `NodeReport` (per cohort; the nodes of every cohort due flush in
//! ascending node index), `PostRound` (controller tick + sampling).

// Index-based loops are deliberate here: most iterate one struct field
// while mutating siblings, which iterators cannot express without
// splitting borrows.
#![allow(clippy::needless_range_loop)]

use crate::control_plane::ControlPlane;
use crate::pod_host::{apply_limit_updates, update_secs};
use crate::policy::Policy;
use crate::queueing::{backlog_exceeds, capped_demand_us, drain_fifo_into, StageJob};
use escra_baselines::{validate_observation, ContainerProfile, PeriodicScaler, UsageSample};
use escra_cfs::{node::arbitrate_into, ChargeOutcome, MIB};
use escra_cluster::AppId;
use escra_cluster::{Cluster, ContainerId, ContainerSpec, NodeId, NodeSpec};
use escra_core::telemetry::ToController;
use escra_core::{AppConfig, CpuStatsEntry};
use escra_metrics::trace::{NoopSink, TraceRecorder, TraceSink};
use escra_metrics::RunMetrics;
use escra_net::{BandwidthAccountant, FaultPlan, FaultStats};
use escra_simcore::events::EventQueue;
use escra_simcore::rng::{lognormal_params, SimRng};
use escra_simcore::time::{SimDuration, SimTime};
use escra_workloads::{MicroserviceApp, RequestGenerator, ServiceTime, WorkloadKind};
use std::collections::VecDeque;
use std::time::Instant;

/// Per-node telemetry report cadence.
///
/// The physics quantum (the fluid window) stays the Escra report period;
/// this plan only decouples *when each node's Agent flushes* its batched
/// telemetry: node `n` reports every
/// `period × period_multipliers[n % len]`, first offset by a
/// deterministic per-node phase drawn uniformly from
/// `[0, jitter_frac × node_period)`. Multi-window reports batch several
/// entries per container into one datagram.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportPlan {
    /// Report-period multipliers, cycled over node index (empty = all 1).
    pub period_multipliers: Vec<u32>,
    /// Phase jitter as a fraction of the node's report period, in `[0, 1]`.
    pub jitter_frac: f64,
}

impl ReportPlan {
    /// The aligned plan: every node reports every period, no jitter.
    pub fn aligned() -> Self {
        ReportPlan {
            period_multipliers: Vec::new(),
            jitter_frac: 0.0,
        }
    }

    /// Telemetry flush cadence of `node`: the plan's multiplier over the
    /// `base` report period.
    pub(crate) fn node_period(&self, base: SimDuration, node: usize) -> SimDuration {
        let ms = &self.period_multipliers;
        if ms.is_empty() {
            base
        } else {
            base * ms[node % ms.len()].max(1) as u64
        }
    }

    /// Deterministic phase offset of `node`'s first report, drawn from
    /// the run's `seed`.
    pub(crate) fn node_phase(&self, base: SimDuration, seed: u64, node: usize) -> SimDuration {
        if self.jitter_frac > 0.0 {
            let p = self.node_period(base, node).as_secs_f64();
            let mut r = SimRng::new(seed)
                .fork(0x7265_7074) // "rept"
                .fork(node as u64);
            SimDuration::from_secs_f64(r.uniform(0.0, self.jitter_frac.min(1.0) * p))
        } else {
            SimDuration::ZERO
        }
    }
}

/// Counters describing what the simulation engine itself did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Fluid windows processed.
    pub rounds: u64,
    /// Events dispatched, off the heap or off the timeout lane beside it
    /// (one per request whose deadline falls inside the run). Telemetry
    /// reports cost one event per report *cohort* (the nodes sharing a
    /// first-due instant and a period) per due instant, not one per
    /// node: an aligned plan pops one a round however many nodes report.
    pub heap_events: u64,
    /// Background (GC-style) jobs injected.
    pub bg_jobs: u64,
    /// Requests failed by timeout.
    pub timeout_failures: u64,
}

/// A phase of the event loop, as [`run_phased`] times it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `Cluster::tick` and the discarded lifecycle feed, once a window.
    ClusterTick,
    /// Request arrivals.
    Arrivals,
    /// Per-node CPU grants.
    Grants,
    /// Queue drain in DAG order.
    Drain,
    /// CFS accounting and telemetry collection.
    Account,
    /// Memory demand and OOM handling.
    Memory,
    /// One `NodeReport` pop: every due node's telemetry flush.
    NodeReports,
    /// The Controller's tick on `PostRound`.
    ControllerRound,
    /// Per-second sampling and periodic scaler updates on `PostRound`.
    Sampling,
    /// `Timeout` and `Background` events.
    Other,
}

impl Phase {
    /// Every phase, in the order [`PhaseTimes`] reports them.
    pub const ALL: [Phase; 10] = [
        Phase::ClusterTick,
        Phase::Arrivals,
        Phase::Grants,
        Phase::Drain,
        Phase::Account,
        Phase::Memory,
        Phase::NodeReports,
        Phase::ControllerRound,
        Phase::Sampling,
        Phase::Other,
    ];

    /// A short, stable label for tables.
    pub fn name(self) -> &'static str {
        match self {
            Phase::ClusterTick => "cluster tick",
            Phase::Arrivals => "arrivals",
            Phase::Grants => "grants",
            Phase::Drain => "drain",
            Phase::Account => "account",
            Phase::Memory => "memory",
            Phase::NodeReports => "node reports",
            Phase::ControllerRound => "controller round",
            Phase::Sampling => "sampling",
            Phase::Other => "other events",
        }
    }
}

/// Host wall time of a run's event loop, phase by phase ([`run_phased`]).
///
/// Wall-clock time is not a simulated quantity: it differs from run to
/// run, so it stays out of [`TraceSink`]s, whose output is deterministic.
#[derive(Debug, Clone, Default)]
pub struct PhaseTimes {
    secs: [f64; Phase::ALL.len()],
    calls: [u64; Phase::ALL.len()],
    loop_secs: f64,
}

impl PhaseTimes {
    /// Wall seconds spent in `phase`.
    pub fn secs(&self, phase: Phase) -> f64 {
        self.secs[phase as usize]
    }

    /// Timed spans of `phase`: one per window for the window phases, one
    /// per event for the others.
    pub fn calls(&self, phase: Phase) -> u64 {
        self.calls[phase as usize]
    }

    /// Wall seconds of the whole event loop, the phases, the heap pops
    /// and the dispatch between them included.
    pub fn loop_secs(&self) -> f64 {
        self.loop_secs
    }
}

/// The clock of a run's phase spans: `()` reads none and compiles away,
/// [`PhaseTimes`] reads the host clock at each phase boundary.
trait PhaseClock {
    type Mark: Copy;
    /// The current instant.
    fn mark(&self) -> Self::Mark;
    /// Charges the time since `since` to `phase` and returns now.
    fn lap(&mut self, phase: Phase, since: Self::Mark) -> Self::Mark;
}

impl PhaseClock for () {
    type Mark = ();
    fn mark(&self) {}
    fn lap(&mut self, _: Phase, _: ()) {}
}

impl PhaseClock for PhaseTimes {
    type Mark = Instant;
    fn mark(&self) -> Instant {
        Instant::now()
    }
    fn lap(&mut self, phase: Phase, since: Instant) -> Instant {
        let now = Instant::now();
        self.secs[phase as usize] += (now - since).as_secs_f64();
        self.calls[phase as usize] += 1;
        now
    }
}

/// Configuration of one microservice experiment run.
#[derive(Debug, Clone)]
pub struct MicroSimConfig {
    /// The application model.
    pub app: MicroserviceApp,
    /// The request workload.
    pub workload: WorkloadKind,
    /// The allocation policy under test.
    pub policy: Policy,
    /// Master seed; equal seeds give identical runs.
    pub seed: u64,
    /// Measured duration (after warm-up).
    pub duration: SimDuration,
    /// Number of worker nodes (paper: 3).
    pub worker_nodes: usize,
    /// Cores per worker node (paper: 20).
    pub node_cores: u32,
    /// End-to-end request timeout; expired requests count as failures.
    pub request_timeout: SimDuration,
    /// Length of the profiling pre-run used by baseline policies.
    pub profile_duration: SimDuration,
    /// Faults injected into the Escra control plane (loss, duplication,
    /// delay spikes, partitions). [`FaultPlan::none`] — the default —
    /// reproduces the faultless run bit for bit.
    pub faults: FaultPlan,
    /// Optional per-node telemetry cadence.
    pub report_plan: Option<ReportPlan>,
}

impl MicroSimConfig {
    /// A paper-like setup for `app` × `workload` × `policy`.
    pub fn new(app: MicroserviceApp, workload: WorkloadKind, policy: Policy, seed: u64) -> Self {
        MicroSimConfig {
            app,
            workload,
            policy,
            seed,
            duration: SimDuration::from_secs(60),
            worker_nodes: 3,
            node_cores: 20,
            request_timeout: SimDuration::from_secs(10),
            profile_duration: SimDuration::from_secs(20),
            faults: FaultPlan::none(),
            report_plan: None,
        }
    }

    /// Sets the measured duration (builder style).
    pub fn with_duration(mut self, d: SimDuration) -> Self {
        self.duration = d;
        self
    }

    /// Sets the control-plane fault plan (builder style).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Sets the per-node telemetry cadence (builder style).
    pub fn with_report_plan(mut self, plan: ReportPlan) -> Self {
        self.report_plan = Some(plan);
        self
    }
}

/// Warm-up before measurement starts: containers cold-start for 2 s and
/// then run their post-start burst for [`STARTUP_LEN`]; like the paper's
/// wrk2 measurements, the workload is measured against a settled
/// deployment, not container boot.
const WARMUP: SimDuration = SimDuration::from_secs(10);
/// Length of a container's post-start warm-up burst (JIT, cache priming).
const STARTUP_LEN: SimDuration = SimDuration::from_secs(5);
/// Sentinel request index marking background (GC-style) work.
const BG_REQUEST: usize = usize::MAX;
/// Cache fill constant per busy period.
const CACHE_FILL: f64 = 0.03;
/// Cache decay per idle period.
const CACHE_DECAY: f64 = 0.995;
/// Sentinel for "request holds no queued stage job".
const NO_STAGE: usize = usize::MAX;

/// Events of the run. Same-time ordering (by canonical
/// key, see [`ev_key`]) is: Round, Timeout, Background, NodeReport,
/// PostRound — so a window closes before the timeouts due at its edge
/// fire (a completion at exactly the deadline still succeeds), background
/// arrivals join the *next* window, telemetry reports the closed window,
/// and the controller ticks after ingesting it.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Close of a fluid window: process `[t - period, t)`.
    Round,
    /// A request's timeout expires.
    Timeout {
        /// Request index.
        request: usize,
    },
    /// A background job lands on a container.
    Background {
        /// Container index.
        container: usize,
    },
    /// The Agents of a report cohort flush their batched telemetry.
    NodeReport {
        /// Index into [`ReportCohorts::cohorts`].
        cohort: usize,
    },
    /// Post-window policy work: controller tick + per-second sampling.
    PostRound,
}

/// Low 48 bits of the canonical key identify the entity; the high bits
/// carry the same-time priority class.
const KEY_ENTITY_MASK: u64 = (1 << 48) - 1;

fn ev_key(ev: Ev) -> u64 {
    match ev {
        Ev::Round => 0,
        Ev::Timeout { request } => (1 << 48) | (request as u64 & KEY_ENTITY_MASK),
        Ev::Background { container } => (2 << 48) | (container as u64 & KEY_ENTITY_MASK),
        Ev::NodeReport { cohort } => (3 << 48) | (cohort as u64 & KEY_ENTITY_MASK),
        Ev::PostRound => 4 << 48,
    }
}

/// Pops the next event of the run: the front of the timeout `lane` or
/// the top of the `heap`, whichever is due first by `(time, ev_key)`.
///
/// Every request schedules one `Timeout`, at `arrival + request_timeout`.
/// Arrivals are generated in time order and the key of a `Timeout` grows
/// with the request index, so the `(deadline, request)` pairs are pushed
/// in strictly increasing `(time, key)` order: a FIFO already holds them
/// as the heap would, and comparing its front with the heap's top pops
/// the two together in the order one heap holding both would.
fn pop_next(
    lane: &mut VecDeque<(SimTime, usize)>,
    heap: &mut EventQueue<Ev>,
) -> Option<(SimTime, Ev)> {
    if let Some(&(due, request)) = lane.front() {
        let timeout = Ev::Timeout { request };
        let lane_first = heap
            .peek()
            .is_none_or(|(t, &ev)| (due, ev_key(timeout)) < (t, ev_key(ev)));
        if lane_first {
            lane.pop_front();
            return Some((due, timeout));
        }
    }
    heap.pop()
}

/// The report timers of a run: the reporting nodes grouped into
/// *cohorts* by `(first due, period)`, one heap event per cohort per due
/// instant. All nodes of an aligned plan share one cohort; a jittered
/// plan degenerates to one cohort per node.
#[derive(Debug)]
struct ReportCohorts {
    /// The reporting nodes, cohort by cohort, ascending within each.
    nodes: Vec<usize>,
    cohorts: Vec<Cohort>,
}

#[derive(Debug)]
struct Cohort {
    first_due: SimTime,
    period: SimDuration,
    /// The cohort's slice of [`ReportCohorts::nodes`].
    members: std::ops::Range<usize>,
}

impl ReportCohorts {
    fn new(plan: &ReportPlan, base: SimDuration, seed: u64, reporting_nodes: &[usize]) -> Self {
        let mut keyed: Vec<(SimTime, SimDuration, usize)> = reporting_nodes
            .iter()
            .map(|&node| {
                let period = plan.node_period(base, node);
                let first_due = SimTime::ZERO + period + plan.node_phase(base, seed, node);
                (first_due, period, node)
            })
            .collect();
        keyed.sort_unstable();
        let mut cohorts: Vec<Cohort> = Vec::new();
        for (i, &(first_due, period, _)) in keyed.iter().enumerate() {
            match cohorts.last_mut() {
                Some(c) if c.first_due == first_due && c.period == period => c.members.end = i + 1,
                _ => cohorts.push(Cohort {
                    first_due,
                    period,
                    members: i..i + 1,
                }),
            }
        }
        ReportCohorts {
            nodes: keyed.into_iter().map(|(_, _, node)| node).collect(),
            cohorts,
        }
    }

    /// Schedules every cohort's first report.
    fn schedule(&self, q: &mut EventQueue<Ev>, last_end: SimTime) {
        for (cohort, c) in self.cohorts.iter().enumerate() {
            if c.first_due <= last_end {
                let ev = Ev::NodeReport { cohort };
                q.push_keyed(c.first_due, ev_key(ev), ev);
            }
        }
    }

    /// With `cohort`'s event just popped at `t`: pops the event of every
    /// other cohort due at `t` (they follow back to back, nothing else
    /// shares their key class), schedules each cohort's next report, and
    /// fills `due` with the nodes to flush at `t` in ascending order —
    /// the order one timer per node would pop in. Returns the number of
    /// further events popped.
    fn take_due(
        &self,
        mut cohort: usize,
        t: SimTime,
        q: &mut EventQueue<Ev>,
        last_end: SimTime,
        due: &mut Vec<usize>,
    ) -> u64 {
        due.clear();
        let mut merged = 0;
        loop {
            let c = &self.cohorts[cohort];
            due.extend_from_slice(&self.nodes[c.members.clone()]);
            if t + c.period <= last_end {
                let ev = Ev::NodeReport { cohort };
                q.push_keyed(t + c.period, ev_key(ev), ev);
            }
            match q.peek() {
                Some((next_t, &Ev::NodeReport { cohort: next })) if next_t == t => {
                    q.pop();
                    merged += 1;
                    cohort = next;
                }
                _ => break,
            }
        }
        if merged > 0 {
            due.sort_unstable();
        }
        merged
    }
}

/// One node's CPU grants for a window, in buffers kept for the run.
#[derive(Debug, Default)]
struct NodeGrants {
    /// The node's running members, in membership order.
    members: Vec<usize>,
    /// Each member's potential: its quota left, capped by its parallelism.
    potentials: Vec<f64>,
    /// Σ `potentials`, added in member order.
    total_potential: f64,
    demands: Vec<f64>,
    order: Vec<usize>,
    shares: Vec<f64>,
}

impl NodeGrants {
    fn clear(&mut self) {
        self.members.clear();
        self.potentials.clear();
        self.total_potential = 0.0;
    }

    fn push(&mut self, member: usize, potential: f64) {
        self.members.push(member);
        self.potentials.push(potential);
        self.total_potential += potential;
    }

    /// `(member, grant)` of every member, in member order. An
    /// uncontended node — its demands sum to at most `capacity` — grants
    /// every member its potential: it may burst up to its
    /// quota/parallelism mid-period. A contended one splits `capacity`
    /// max–min fairly over the demands.
    ///
    /// `demand(member, potential)` is `min(…, potential)`, and it is
    /// asked only when the potentials sum past `capacity`. Skipping it
    /// below is exact: IEEE addition is monotone, so demands no larger
    /// than the potentials, added in the same order, cannot sum past
    /// the potentials' sum, and the demand test would pass too. A NaN or
    /// infinite potential sum fails the test and asks every demand.
    fn grants(
        &mut self,
        capacity: f64,
        demand: impl FnMut(usize, f64) -> f64,
    ) -> impl Iterator<Item = (usize, f64)> + '_ {
        let uncontended = self.total_potential <= capacity || self.demands_fit(capacity, demand);
        let grants = if uncontended {
            &self.potentials
        } else {
            arbitrate_into(capacity, &self.demands, &mut self.order, &mut self.shares);
            &self.shares
        };
        self.members.iter().copied().zip(grants.iter().copied())
    }

    /// Fills `demands` and tests their sum against `capacity`.
    fn demands_fit(&mut self, capacity: f64, mut demand: impl FnMut(usize, f64) -> f64) -> bool {
        self.demands.clear();
        for (&member, &potential) in self.members.iter().zip(&self.potentials) {
            self.demands.push(demand(member, potential));
        }
        self.demands.iter().sum::<f64>() <= capacity
    }
}

#[derive(Debug, Clone, Copy)]
struct ReqState {
    class: usize,
    arrival: SimTime,
    finished: bool,
}

/// What drives allocation during the run; `S` is the Escra control
/// plane's trace sink.
#[allow(clippy::large_enum_variant)] // one Mode per run; size is irrelevant
enum Mode<S: TraceSink> {
    /// Profiling pre-run: effectively uncapped, record peaks.
    Profile,
    /// Escra event loop.
    Escra(ControlPlane<S>),
    /// Static limits (nothing to do at runtime).
    Static,
    /// A periodic scaler (Autopilot, VPA, tiny autoscaler or ARC-V).
    Periodic {
        scaler: Box<dyn PeriodicScaler>,
        update_every_secs: u64,
        restart_on_update: bool,
    },
}

/// Output of a run: the paper metrics plus the control-plane bandwidth
/// accountant (for the §VI-I network-overhead analysis) and the
/// controller stats when the policy was Escra.
#[derive(Debug)]
pub struct MicroSimOutput {
    /// The measured metrics.
    pub metrics: RunMetrics,
    /// Control-plane bytes (Escra runs only).
    pub network: Option<BandwidthAccountant>,
    /// Controller counters (Escra runs only).
    pub controller_stats: Option<escra_core::ControllerStats>,
    /// What the fault injector actually did (Escra runs only; all-zero
    /// under [`FaultPlan::none`]).
    pub fault_stats: Option<FaultStats>,
    /// Per-container profiled peaks (profiling runs only).
    pub profiles: Vec<ContainerProfile>,
    /// Engine counters (rounds, heap events, background jobs, timeouts).
    pub sim: SimStats,
    /// Control-plane pumps cut short by the message-cycle guard; zero in
    /// every run unless the control plane has a delivery loop.
    pub pump_guard_trips: u64,
}

/// Runs one experiment: optional profiling pre-run (for baselines), then
/// the measured run under `cfg.policy`.
pub fn run(cfg: &MicroSimConfig) -> MicroSimOutput {
    let profiles = if cfg.policy.needs_profile() {
        profile_run(cfg)
    } else {
        Vec::new()
    };
    run_with_profiles(cfg, &profiles)
}

/// Runs the measured phase with pre-computed profiles (exposed so sweeps
/// can reuse one profiling run across policies).
pub fn run_with_profiles(cfg: &MicroSimConfig, profiles: &[ContainerProfile]) -> MicroSimOutput {
    Sim::new(cfg, false, profiles, |_| NoopSink, ()).run()
}

/// [`run`] with the host wall time of every event-loop phase of the
/// measured run (a profiling pre-run is not timed). Reading the clock
/// moves nothing, so the output equals [`run`]'s.
pub fn run_phased(cfg: &MicroSimConfig) -> (MicroSimOutput, PhaseTimes) {
    let profiles = if cfg.policy.needs_profile() {
        profile_run(cfg)
    } else {
        Vec::new()
    };
    let mut sim = Sim::new(cfg, false, &profiles, |_| NoopSink, PhaseTimes::default());
    let start = Instant::now();
    sim.run_events();
    sim.phases.loop_secs = start.elapsed().as_secs_f64();
    (sim.finalize(), sim.phases)
}

/// Events each recorder of [`run_traced`] holds before it wraps.
const TRACE_CAPACITY: usize = 16_384;

/// [`run`] with the Escra control plane recording into
/// [`TraceRecorder`]s: the Controller's, then one per node's Agent, then
/// the fault injector's. Each holds 16 384 events; a longer run wraps
/// (see [`TraceRecorder::dropped`]). Tracing moves no decision and draws
/// no randomness, so the output equals [`run`]'s.
///
/// # Panics
///
/// If `cfg.policy` is not Escra (no other policy has a control plane).
pub fn run_traced(cfg: &MicroSimConfig) -> (MicroSimOutput, Vec<TraceRecorder>) {
    let mut sim = Sim::new(
        cfg,
        false,
        &[],
        |class| TraceRecorder::with_capacity(TRACE_CAPACITY).with_class(class),
        (),
    );
    let out = sim.run();
    let Mode::Escra(plane) = sim.mode else {
        panic!("only Escra has a control plane to trace")
    };
    (out, plane.into_sinks())
}

/// Runs only the profiling pre-run, returning per-container peaks in
/// deployment order.
///
/// Profiling drives the application with a **steady stream at the
/// production workload's average rate** and aggregates usage per second
/// — the way operators actually size deployments. Transient peaks
/// (bursts, trace spikes, Poisson clumping) are therefore systematically
/// underestimated, which is the paper's explanation for why even 1.5×
/// static provisioning loses to Escra (§VI-C).
pub fn profile_run(cfg: &MicroSimConfig) -> Vec<ContainerProfile> {
    // The profiling request mix also differs from production: load
    // generators replay a canned scenario that over-exercises the common
    // path and under-exercises the rarer ones, so the tiers serving rare
    // classes get systematically under-provisioned limits. This is the
    // heterogeneous profiling error behind the paper's observation that
    // even 1.5x static provisioning throttles in production (SVI-C).
    let mut app = cfg.app.clone();
    let last = app.classes.len().saturating_sub(1);
    for (i, class) in app.classes.iter_mut().enumerate() {
        class.weight *= if i == 0 {
            1.4
        } else if i == last {
            0.45
        } else {
            0.85
        };
    }
    let profile_cfg = MicroSimConfig {
        duration: cfg.profile_duration,
        seed: cfg.seed ^ 0x70726f66, // "prof": a different sample path
        // "You never know what the workload rate is truly going to be"
        // (SVI-C): the deployment was sized at the rate seen during
        // profiling, and production runs hotter than that estimate.
        workload: WorkloadKind::Fixed {
            rps: cfg.workload.mean_rps() * 0.7,
        },
        app,
        ..cfg.clone()
    };
    Sim::new(&profile_cfg, true, &[], |_| NoopSink, ())
        .run()
        .profiles
}

struct Sim<'a, S: TraceSink, P: PhaseClock> {
    cfg: &'a MicroSimConfig,
    cluster: Cluster,
    containers: Vec<ContainerId>,
    tier_of: Vec<usize>,
    tier_members: Vec<Vec<usize>>,
    /// Container indices hosted per node, in deployment order. Placement
    /// is static (round-robin at deploy; OOM restarts keep the node), so
    /// this is built once — the grant loop never rescans the fleet.
    node_members: Vec<Vec<usize>>,
    /// Nodes hosting at least one container; empty nodes are never
    /// visited and never scheduled.
    active_nodes: Vec<usize>,
    rr: Vec<usize>,
    queues: Vec<VecDeque<StageJob>>,
    requests: Vec<ReqState>,
    /// Container currently queueing each request's stage job
    /// ([`NO_STAGE`] before the first enqueue). Only consulted while the
    /// request is unfinished, in which case it is always current.
    stage_of: Vec<usize>,
    cache_bytes: Vec<f64>,
    /// End of each container's post-start warm-up burst.
    warm_until: Vec<SimTime>,
    gen: RequestGenerator,
    rng: SimRng,
    /// Per-container background chains: stream `root.fork("bc").fork(idx)`
    /// draws `work, gap, work, gap, …`, so background timing is
    /// identical across report periods.
    bg_streams: Vec<SimRng>,
    mode: Mode<S>,
    period: SimDuration,
    /// The per-node telemetry cadence (aligned when none is configured).
    report_plan: ReportPlan,
    /// True when telemetry batches are collected (Escra mode).
    collect_stats: bool,
    metrics: RunMetrics,
    stats: SimStats,
    /// Per-node telemetry entries awaiting the node's next report.
    pending_stats: Vec<Vec<CpuStatsEntry>>,
    /// The timeout lane: `(deadline, request)` of every request whose
    /// deadline falls inside the run, in arrival order (see [`pop_next`]).
    timeouts: VecDeque<(SimTime, usize)>,
    /// Per-tier service-time distributions, parameters worked out once.
    service_times: Vec<ServiceTime>,
    /// Per-tier lognormal `(mu, sigma)` of a background job's work.
    bg_work: Vec<(f64, f64)>,
    // Reusable per-window buffers (the hot loops allocate nothing).
    arrivals: Vec<SimTime>,
    completions: Vec<(usize, SimTime)>,
    grant: Vec<f64>,
    consumed: Vec<f64>,
    node_grants: NodeGrants,
    // per-second accumulators
    next_second: SimTime,
    second_index: u64,
    usage_sec_us: Vec<f64>,
    quota_sec_us: Vec<f64>,
    peak_cpu: Vec<f64>,
    peak_mem: Vec<u64>,
    // 5-second profiling buckets: monitoring tools aggregate over
    // "seconds to minutes", smoothing spikes (§VI-C).
    cpu_bucket_us: Vec<f64>,
    bucket_secs: u64,
    /// Times the event loop's phases (`()`: not at all).
    phases: P,
}

impl<'a, S: TraceSink, P: PhaseClock> Sim<'a, S, P> {
    /// `sink(class)` builds the trace sinks of an Escra control plane;
    /// `phases` times the event loop.
    fn new(
        cfg: &'a MicroSimConfig,
        profiling: bool,
        profiles: &[ContainerProfile],
        sink: impl Fn(u16) -> S,
        phases: P,
    ) -> Self {
        let app = &cfg.app;
        let n = app.container_count();
        let nodes = vec![
            NodeSpec {
                cores: cfg.node_cores,
                mem_bytes: 192 * 1024 * MIB,
            };
            cfg.worker_nodes
        ];
        let mut cluster = Cluster::new(nodes);
        let app_id = AppId::new(0);

        // Build specs in tier order.
        let mut specs = Vec::with_capacity(n);
        let mut tier_of = Vec::with_capacity(n);
        let mut tier_members = vec![Vec::new(); app.tiers.len()];
        for (ti, tier) in app.tiers.iter().enumerate() {
            for r in 0..tier.replicas {
                tier_members[ti].push(specs.len());
                tier_of.push(ti);
                specs.push(
                    ContainerSpec::new(format!("{}-{r}", tier.name), app_id)
                        .with_base_mem(tier.mem_base_mib * MIB)
                        .with_restart_delay(SimDuration::from_secs(2)),
                );
            }
        }

        let period;
        let mode;
        let mut containers = Vec::with_capacity(n);

        if profiling {
            period = SimDuration::from_millis(100);
            for spec in specs {
                let spec = spec
                    .with_cpu_limit(cfg.node_cores as f64)
                    .with_mem_limit(4096 * MIB);
                containers.push(cluster.deploy(spec, SimTime::ZERO).expect("deploy"));
            }
            mode = Mode::Profile;
        } else {
            match &cfg.policy {
                Policy::Escra(ecfg) => {
                    period = ecfg.report_period;
                    let app_config = AppConfig {
                        app: app_id,
                        name: app.name.clone(),
                        global_cpu_cores: app.global_cpu_cores,
                        global_mem_bytes: app.global_mem_mib * MIB,
                        containers: specs,
                    };
                    let (plane, ids) = ControlPlane::deploy(
                        ecfg,
                        &app_config,
                        &mut cluster,
                        cfg.faults.clone(),
                        cfg.seed,
                        sink,
                    );
                    containers = ids;
                    mode = Mode::Escra(plane);
                }
                policy => {
                    // Every other policy starts each container at limits
                    // taken from its profiled peaks (`factor ×` them under
                    // Static). A periodic scaler then tracks them from
                    // there — Autopilot warm-starts its histograms from
                    // history, as production Autopilot would.
                    period = SimDuration::from_millis(100);
                    assert_eq!(profiles.len(), n, "{} needs profiles", policy.name());
                    let mut scaler = policy.build_scaler();
                    for (i, spec) in specs.into_iter().enumerate() {
                        let p = match policy {
                            Policy::Static { factor } => profiles[i].scaled(*factor),
                            _ => profiles[i],
                        };
                        let cpu = p.peak_cpu_cores.max(0.1);
                        let mem = p
                            .peak_mem_bytes
                            .max(cfg.app.tiers[tier_of[i]].mem_base_mib * MIB + 16 * MIB);
                        let spec = spec.with_cpu_limit(cpu).with_mem_limit(mem);
                        let id = cluster.deploy(spec, SimTime::ZERO).expect("deploy");
                        if let Some(s) = scaler.as_mut() {
                            s.track(id, cpu, mem);
                        }
                        containers.push(id);
                    }
                    mode = match scaler {
                        None => Mode::Static,
                        Some(scaler) => Mode::Periodic {
                            update_every_secs: update_secs(scaler.as_ref()),
                            scaler,
                            // Only VPA applies its updates by restart; the
                            // rest resize in place.
                            restart_on_update: matches!(policy, Policy::Vpa(_)),
                        },
                    };
                }
            }
        }

        // The cluster mints ids densely from 0, in deployment order.
        debug_assert!(
            containers
                .iter()
                .enumerate()
                .all(|(idx, c)| c.as_u64() == idx as u64),
            "container ids are not their deployment indices"
        );
        // Static placement: build the per-node membership once.
        let node_count = cluster.nodes().len();
        let mut node_members: Vec<Vec<usize>> = vec![Vec::new(); node_count];
        for (idx, cid) in containers.iter().enumerate() {
            let node = cluster.container(*cid).expect("container").node().as_u64() as usize;
            node_members[node].push(idx);
        }
        let active_nodes: Vec<usize> = (0..node_count)
            .filter(|&nd| !node_members[nd].is_empty())
            .collect();

        assert!(
            cfg.request_timeout >= period,
            "timeout events need request_timeout >= report period"
        );
        let collect_stats = matches!(mode, Mode::Escra(_));
        let policy_name = if profiling {
            "profile".to_string()
        } else {
            cfg.policy.name()
        };
        let root = SimRng::new(cfg.seed);
        let rng_bg = root.fork(0x6263); // "bc": background chains
        let bg_streams = (0..n).map(|idx| rng_bg.fork(idx as u64)).collect();
        // Room for one window's entries per node: a flush that reads them
        // by reference keeps the buffer for the whole run.
        let pending_stats = node_members
            .iter()
            .map(|members| Vec::with_capacity(members.len()))
            .collect();
        Sim {
            cfg,
            cluster,
            tier_of,
            tier_members,
            node_members,
            active_nodes,
            rr: vec![0; app.tiers.len()],
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            requests: Vec::new(),
            stage_of: Vec::new(),
            cache_bytes: vec![0.0; n],
            warm_until: vec![SimTime::ZERO + SimDuration::from_secs(2) + STARTUP_LEN; n],
            gen: RequestGenerator::new(cfg.workload.clone(), cfg.seed),
            rng: root.fork(0x7365_7276), // service times
            bg_streams,
            mode,
            period,
            report_plan: cfg.report_plan.clone().unwrap_or_else(ReportPlan::aligned),
            collect_stats,
            metrics: RunMetrics::new(policy_name),
            stats: SimStats::default(),
            pending_stats,
            timeouts: VecDeque::new(),
            service_times: app.tiers.iter().map(|t| t.service_time()).collect(),
            bg_work: app
                .tiers
                .iter()
                .map(|t| lognormal_params(t.bg_work_ms * 1_000.0, 0.5))
                .collect(),
            arrivals: Vec::new(),
            completions: Vec::new(),
            grant: vec![0.0; n],
            consumed: vec![0.0; n],
            node_grants: NodeGrants::default(),
            next_second: SimTime::from_secs(1),
            second_index: 0,
            usage_sec_us: vec![0.0; n],
            quota_sec_us: vec![0.0; n],
            peak_cpu: vec![0.0; n],
            peak_mem: vec![0u64; n],
            cpu_bucket_us: vec![0.0; n],
            bucket_secs: 0,
            containers,
            phases,
        }
    }

    fn enqueue_stage(&mut self, request: usize, tier: usize, work_us: f64, at: SimTime) {
        // Round-robin over running replicas; fall back to plain
        // round-robin when none are running (requests queue at a
        // restarting replica and wait or time out). The cursor wraps
        // instead of taking `% len`: `rr[tier]` is always a member index.
        let members = &self.tier_members[tier];
        let start = self.rr[tier];
        debug_assert!(start < members.len(), "round-robin cursor out of range");
        let next = |k: usize| if k + 1 == members.len() { 0 } else { k + 1 };
        let mut k = start;
        let (idx, next_rr) = loop {
            let idx = members[k];
            if self
                .cluster
                .container(self.containers[idx])
                .is_some_and(|c| c.is_running())
            {
                break (idx, next(k));
            }
            k = next(k);
            if k == start {
                break (members[start], next(start));
            }
        };
        self.rr[tier] = next_rr;
        if request != BG_REQUEST {
            self.stage_of[request] = idx;
        }
        self.queues[idx].push_back(StageJob {
            request,
            remaining_us: work_us,
            queued_at: at,
        });
    }

    /// What a kill or restart at `now` costs container `idx`: every
    /// queued request fails, the page cache is gone, and the restarted
    /// container will re-run its warm-up burst.
    fn fail_queue(&mut self, idx: usize, now: SimTime) {
        self.cache_bytes[idx] = 0.0;
        self.warm_until[idx] = now + SimDuration::from_secs(2) + STARTUP_LEN;
        let jobs: Vec<usize> = self.queues[idx].iter().map(|j| j.request).collect();
        self.queues[idx].clear();
        for r in jobs {
            if r != BG_REQUEST && !self.requests[r].finished {
                self.requests[r].finished = true;
                self.metrics.latency.record_failure();
            }
        }
    }

    /// [`Sim::fail_queue`] for every container the Controller killed.
    /// Container `idx` has raw id `idx` ([`Sim::new`] asserts it).
    fn fail_killed(&mut self, killed: &[ContainerId], now: SimTime) {
        for k in killed {
            let idx = k.as_u64() as usize;
            if idx < self.containers.len() {
                self.fail_queue(idx, now);
            }
        }
    }

    /// Fails `request` at its exact deadline and removes its queued
    /// stage job. The expired job vacates its queue at the deadline, so
    /// the fluid window containing the deadline redistributes its
    /// would-be service to survivors.
    fn expire_request(&mut self, request: usize) {
        if self.requests[request].finished {
            return;
        }
        self.requests[request].finished = true;
        self.metrics.latency.record_failure();
        self.stats.timeout_failures += 1;
        let idx = self.stage_of[request];
        if idx != NO_STAGE {
            // An unfinished request holds exactly one stage job.
            let queue = &mut self.queues[idx];
            if let Some(pos) = queue.iter().position(|j| j.request == request) {
                queue.remove(pos);
            }
            debug_assert!(queue.iter().all(|j| j.request != request));
        }
    }

    fn run(&mut self) -> MicroSimOutput {
        self.run_events();
        self.finalize()
    }

    /// The event loop: `Round` events close windows at `P, 2P, …` while
    /// the window start precedes `end`; timers (timeouts, background
    /// chains, report flushes) fire at their own instants in between.
    fn run_events(&mut self) {
        let cfg = self.cfg;
        let period = self.period;
        let end = SimTime::ZERO + WARMUP + cfg.duration;
        // The grid's final window closes at `last_end`; no event beyond
        // it is scheduled.
        let rounds_total = end.as_micros().div_ceil(period.as_micros().max(1));
        let last_end = SimTime::ZERO + period * rounds_total;
        let mut q: EventQueue<Ev> = EventQueue::new();
        q.push_keyed(SimTime::ZERO + period, ev_key(Ev::Round), Ev::Round);
        q.push_keyed(SimTime::ZERO + period, ev_key(Ev::PostRound), Ev::PostRound);
        // One report timer per cohort of non-empty nodes; idle nodes
        // never wake.
        let reporting: &[usize] = if self.collect_stats {
            &self.active_nodes
        } else {
            &[]
        };
        let cohorts = ReportCohorts::new(&self.report_plan, period, cfg.seed, reporting);
        cohorts.schedule(&mut q, last_end);
        let mut due_nodes = Vec::new();
        for idx in 0..self.containers.len() {
            let interval = cfg.app.tiers[self.tier_of[idx]].bg_interval_s;
            if interval > 0.0 {
                let gap = self.bg_streams[idx].exponential(1.0 / interval);
                let due = SimTime::ZERO + SimDuration::from_secs_f64(gap);
                let ev = Ev::Background { container: idx };
                if due <= last_end {
                    q.push_keyed(due, ev_key(ev), ev);
                }
            }
        }
        while let Some((t, ev)) = pop_next(&mut self.timeouts, &mut q) {
            debug_assert!(t <= last_end, "event past the run horizon");
            self.stats.heap_events += 1;
            match ev {
                Ev::Round => {
                    // Retrospective window close: the whole window
                    // [t - P, t) resolves now, with send/OOM timestamps
                    // at the window end and warm-up checks at the
                    // window start.
                    let ws = t - period;
                    let m = self.phases.mark();
                    self.cluster.tick(ws);
                    let m = self.phases.lap(Phase::ClusterTick, m);
                    self.round_arrivals(ws, t, last_end);
                    let m = self.phases.lap(Phase::Arrivals, m);
                    self.round_grants(ws);
                    let m = self.phases.lap(Phase::Grants, m);
                    self.round_drain(ws, t);
                    let m = self.phases.lap(Phase::Drain, m);
                    self.round_account();
                    let m = self.phases.lap(Phase::Account, m);
                    self.round_memory(t);
                    self.phases.lap(Phase::Memory, m);
                    self.stats.rounds += 1;
                    if t < end {
                        q.push_keyed(t + period, ev_key(Ev::Round), Ev::Round);
                    }
                }
                Ev::Timeout { request } => {
                    let m = self.phases.mark();
                    self.expire_request(request);
                    self.phases.lap(Phase::Other, m);
                }
                Ev::Background { container } => {
                    let m = self.phases.mark();
                    let tier = &cfg.app.tiers[self.tier_of[container]];
                    if self
                        .cluster
                        .container(self.containers[container])
                        .is_some_and(|c| c.is_running())
                    {
                        let (mu, sigma) = self.bg_work[self.tier_of[container]];
                        let work = self.bg_streams[container].lognormal(mu, sigma);
                        self.queues[container].push_front(StageJob {
                            request: BG_REQUEST,
                            remaining_us: work,
                            queued_at: t,
                        });
                        self.stats.bg_jobs += 1;
                    }
                    let gap = self.bg_streams[container].exponential(1.0 / tier.bg_interval_s);
                    let due = t + SimDuration::from_secs_f64(gap);
                    if due <= last_end {
                        q.push_keyed(due, ev_key(ev), ev);
                    }
                    self.phases.lap(Phase::Other, m);
                }
                Ev::NodeReport { cohort } => {
                    let m = self.phases.mark();
                    self.stats.heap_events +=
                        cohorts.take_due(cohort, t, &mut q, last_end, &mut due_nodes);
                    for &node in &due_nodes {
                        self.send_node_batch(node, t);
                    }
                    self.phases.lap(Phase::NodeReports, m);
                }
                Ev::PostRound => {
                    let m = self.phases.mark();
                    self.controller_round(t);
                    let m = self.phases.lap(Phase::ControllerRound, m);
                    self.sample_seconds(t);
                    self.phases.lap(Phase::Sampling, m);
                    if t < end {
                        q.push_keyed(t + period, ev_key(Ev::PostRound), Ev::PostRound);
                    }
                }
            }
        }
    }

    /// Window phase 1: request arrivals in `[win_start, win_end)`. No
    /// timeout is scheduled past `last_end`, the run's horizon.
    fn round_arrivals(&mut self, win_start: SimTime, win_end: SimTime, last_end: SimTime) {
        let warmup_end = SimTime::ZERO + WARMUP;
        if win_end <= warmup_end {
            return;
        }
        let from = if win_start < warmup_end {
            warmup_end
        } else {
            win_start
        };
        // Out of `self` while the loop below enqueues the first stages.
        let mut arrivals = std::mem::take(&mut self.arrivals);
        arrivals.clear();
        self.gen.arrivals_into(from, win_end, &mut arrivals);
        let timeout = self.cfg.request_timeout;
        for &at in &arrivals {
            let class = self.cfg.app.sample_class(&mut self.rng);
            let tier0 = self.cfg.app.classes[class].path[0];
            let work = self.service_times[tier0].sample(&mut self.rng);
            let req = self.requests.len();
            self.requests.push(ReqState {
                class,
                arrival: at,
                finished: false,
            });
            self.stage_of.push(NO_STAGE);
            let due = at + timeout;
            if due <= last_end {
                debug_assert!(
                    self.timeouts
                        .back()
                        .is_none_or(|&(d, r)| d <= due && r < req),
                    "timeout lane out of order"
                );
                self.timeouts.push_back((due, req));
            }
            self.enqueue_stage(req, tier0, work, at);
        }
        self.arrivals = arrivals;
    }

    /// Window phase 3: per-node max–min fair CPU grants over the static
    /// membership (no fleet-wide scan).
    fn round_grants(&mut self, win_start: SimTime) {
        let period_us = self.period.as_micros() as f64;
        self.grant.fill(0.0);
        let capacity = self.cfg.node_cores as f64 * period_us;
        let tiers = &self.cfg.app.tiers;
        for &node in &self.active_nodes {
            self.node_grants.clear();
            for &idx in &self.node_members[node] {
                let c = self
                    .cluster
                    .container(self.containers[idx])
                    .expect("container");
                if !c.is_running() {
                    continue;
                }
                debug_assert_eq!(c.node().as_u64() as usize, node, "placement is static");
                let potential = c
                    .cpu
                    .runtime_remaining_us()
                    .min(tiers[self.tier_of[idx]].parallelism * period_us);
                self.node_grants.push(idx, potential);
            }
            let grants = self.node_grants.grants(capacity, |idx, potential| {
                let startup_us = if win_start < self.warm_until[idx] {
                    tiers[self.tier_of[idx]].startup_cpu_cores * period_us
                } else {
                    0.0
                };
                capped_demand_us(&self.queues[idx], startup_us, potential)
            });
            for (idx, grant) in grants {
                self.grant[idx] = grant;
            }
        }
    }

    /// Window phase 4: drain queues in DAG (tier) order.
    fn round_drain(&mut self, win_start: SimTime, win_end: SimTime) {
        let period_us = self.period.as_micros() as f64;
        self.consumed.fill(0.0);
        // Out of `self` while the loop below enqueues next stages.
        let mut completions = std::mem::take(&mut self.completions);
        for tier in 0..self.cfg.app.tiers.len() {
            for mi in 0..self.tier_members[tier].len() {
                let idx = self.tier_members[tier][mi];
                // An empty queue past its warm-up consumes nothing: its
                // `consumed` stays the 0.0 written above.
                if self.grant[idx] <= 0.0
                    || (self.queues[idx].is_empty() && win_start >= self.warm_until[idx])
                {
                    continue;
                }
                let rate = self.cfg.app.tiers[tier].parallelism;
                let drained_us = drain_fifo_into(
                    &mut self.queues[idx],
                    win_start,
                    win_end,
                    rate,
                    self.grant[idx],
                    &mut completions,
                );
                // Warm-up burst soaks up whatever the requests left.
                let startup_us = if win_start < self.warm_until[idx] {
                    self.cfg.app.tiers[tier].startup_cpu_cores * period_us
                } else {
                    0.0
                };
                self.consumed[idx] =
                    drained_us + startup_us.min(self.grant[idx] - drained_us).max(0.0);
                for (req, ctime) in completions.drain(..) {
                    if req == BG_REQUEST || self.requests[req].finished {
                        continue;
                    }
                    let class = self.requests[req].class;
                    let path = &self.cfg.app.classes[class].path;
                    let pos = path.iter().position(|&p| p == tier).unwrap_or(0);
                    if pos + 1 < path.len() {
                        let next_tier = path[pos + 1];
                        let work = self.service_times[next_tier].sample(&mut self.rng);
                        self.enqueue_stage(req, next_tier, work, ctime);
                    } else {
                        self.requests[req].finished = true;
                        let latency = ctime.duration_since(self.requests[req].arrival);
                        self.metrics.latency.record_success(latency);
                    }
                }
            }
        }
        self.completions = completions;
    }

    /// Window phase 5: CFS accounting + telemetry collection. Telemetry
    /// entries accumulate per node and leave on the node's next report.
    fn round_account(&mut self) {
        let period_us = self.period.as_micros() as f64;
        for idx in 0..self.containers.len() {
            let cid = self.containers[idx];
            let c = self.cluster.container_mut(cid).expect("container");
            let running = c.is_running();
            if self.consumed[idx] > 0.0 {
                c.cpu.consume(self.consumed[idx]);
            }
            if running
                && c.cpu.runtime_remaining_us() <= period_us * 0.01
                && backlog_exceeds(&self.queues[idx], 1.0)
            {
                c.cpu.mark_throttled();
            }
            let stats = c.cpu.end_period();
            if self.collect_stats && running {
                let node = c.node().as_u64() as usize;
                self.pending_stats[node].push(CpuStatsEntry {
                    container: cid,
                    stats,
                });
            }
            self.usage_sec_us[idx] += stats.usage_us;
            self.quota_sec_us[idx] += stats.quota_cores * period_us;
        }
    }

    /// Window phase 6: memory demand.
    fn round_memory(&mut self, now: SimTime) {
        for idx in 0..self.containers.len() {
            let tier = &self.cfg.app.tiers[self.tier_of[idx]];
            let busy = self.consumed[idx] > 0.0 || !self.queues[idx].is_empty();
            let cache_max = (tier.mem_cache_mib * MIB) as f64;
            if busy {
                self.cache_bytes[idx] += (cache_max - self.cache_bytes[idx]) * CACHE_FILL;
            } else {
                self.cache_bytes[idx] *= CACHE_DECAY;
            }
            // Only admitted (in-service) requests hold heap memory;
            // the rest of the queue waits in socket buffers.
            let inflight = (self.queues[idx].len() as u64).min(128);
            let target = tier.mem_base_mib * MIB
                + inflight * tier.mem_per_inflight_kib * 1024
                + self.cache_bytes[idx] as u64;
            self.apply_memory_target(idx, target, now);
        }
    }

    /// Flushes `node`'s batched telemetry: the node's Agent coalesces
    /// its containers' period stats into ONE datagram (entries in
    /// container order), so the UDP envelope is paid once per node per
    /// report instead of once per container — the §VI-I batching
    /// optimisation. The fault fabric sees one message per node: a drop
    /// loses the whole node's batch, matching a lost datagram.
    fn send_node_batch(&mut self, node: usize, now: SimTime) {
        let Mode::Escra(plane) = &mut self.mode else {
            return;
        };
        let entries = &mut self.pending_stats[node];
        if entries.is_empty() {
            return;
        }
        let killed = plane.report(&mut self.cluster, now, NodeId::new(node as u64), entries);
        self.fail_killed(&killed, now);
    }

    /// Periodic reclamation loop + grant-retry timers (Escra only).
    fn controller_round(&mut self, now: SimTime) {
        let Mode::Escra(plane) = &mut self.mode else {
            return;
        };
        let killed = plane.tick(&mut self.cluster, now);
        self.fail_killed(&killed, now);
    }

    /// Window phase 8: per-second slack/limit sampling and periodic
    /// scaler updates, for every whole second up to `upto`.
    fn sample_seconds(&mut self, upto: SimTime) {
        let warmup_end = SimTime::ZERO + WARMUP;
        let n = self.containers.len();
        while self.next_second <= upto {
            let next_second = self.next_second;
            self.second_index += 1;
            let mut agg_cpu_limit = 0.0;
            let mut agg_mem_limit = 0.0;
            for idx in 0..n {
                let usage_cores = self.usage_sec_us[idx] / 1e6;
                let c = self
                    .cluster
                    .container(self.containers[idx])
                    .expect("container");
                // Time-weighted limit over the second, like the
                // per-second aggregation of the paper's tooling.
                let quota = self.quota_sec_us[idx] / 1e6;
                let mem_limit = c.mem.limit_bytes();
                let mem_usage = c.mem.usage_bytes();
                agg_cpu_limit += quota;
                agg_mem_limit += mem_limit as f64 / MIB as f64;
                if next_second > warmup_end {
                    self.metrics.slack.record(
                        (quota - usage_cores).max(0.0),
                        mem_limit.saturating_sub(mem_usage) as f64 / MIB as f64,
                    );
                }
                self.cpu_bucket_us[idx] += self.usage_sec_us[idx];
                self.peak_mem[idx] = self.peak_mem[idx].max(mem_usage);
                // Feed periodic scalers a 1 s sample (scalers start
                // with the workload, not during the idle warm-up).
                if next_second > warmup_end {
                    if let Mode::Periodic { scaler, .. } = &mut self.mode {
                        let sample = UsageSample {
                            cpu_cores: usage_cores,
                            mem_bytes: mem_usage,
                        };
                        // The harness knows the physical node capacity;
                        // catch malformed telemetry before the scaler.
                        validate_observation(&sample, self.cfg.node_cores as f64);
                        scaler.observe(self.containers[idx], sample);
                    }
                }
                self.usage_sec_us[idx] = 0.0;
                self.quota_sec_us[idx] = 0.0;
            }
            if next_second > warmup_end {
                self.metrics
                    .record_limits(next_second, agg_cpu_limit, agg_mem_limit);
            }
            // Close a 5-second profiling bucket: the peak recorded is
            // the max of 5 s *means*, as coarse monitoring reports.
            self.bucket_secs += 1;
            if self.bucket_secs == 5 {
                for idx in 0..n {
                    let mean_cores = self.cpu_bucket_us[idx] / (5.0 * 1e6);
                    self.peak_cpu[idx] = self.peak_cpu[idx].max(mean_cores);
                    self.cpu_bucket_us[idx] = 0.0;
                }
                self.bucket_secs = 0;
            }
            // Periodic scaler recommendation on its update boundary.
            if let Mode::Periodic {
                scaler,
                update_every_secs,
                restart_on_update,
            } = &mut self.mode
            {
                if next_second > warmup_end && self.second_index.is_multiple_of(*update_every_secs)
                {
                    let updates = scaler.recommend();
                    let restart = *restart_on_update;
                    apply_limit_updates(&mut self.cluster, &updates, restart, next_second);
                    if restart {
                        for u in updates.iter().filter(|u| u.requires_restart) {
                            self.fail_killed(&[u.container], next_second);
                        }
                    }
                }
            }
            self.next_second += SimDuration::from_secs(1);
        }
    }

    fn finalize(&mut self) -> MicroSimOutput {
        let n = self.containers.len();
        self.metrics.duration = self.cfg.duration;
        self.metrics.oom_kills = self.cluster.total_oom_kills();
        let profiles = (0..n)
            .map(|idx| ContainerProfile {
                peak_cpu_cores: self.peak_cpu[idx],
                peak_mem_bytes: self.peak_mem[idx],
            })
            .collect();
        let (network, controller_stats, fault_stats, pump_guard_trips) = match &self.mode {
            Mode::Escra(plane) => (
                Some(plane.wire.accountant.clone()),
                Some(plane.controller.stats()),
                Some(plane.wire.injector.stats()),
                plane.guard_trips,
            ),
            _ => (None, None, None, 0),
        };
        MicroSimOutput {
            metrics: std::mem::replace(&mut self.metrics, RunMetrics::new("done")),
            network,
            controller_stats,
            fault_stats,
            profiles,
            sim: self.stats,
            pump_guard_trips,
        }
    }

    /// Brings a container's memory usage toward `target`, handling OOMs
    /// per policy.
    fn apply_memory_target(&mut self, idx: usize, target: u64, now: SimTime) {
        let cid = self.containers[idx];
        let c = self.cluster.container_mut(cid).expect("container");
        if !c.is_running() {
            return;
        }
        let usage = c.mem.usage_bytes();
        if target <= usage {
            c.mem.uncharge(usage - target);
            return;
        }
        let delta = target - usage;
        if let ChargeOutcome::WouldOom { shortfall_bytes } = c.mem.try_charge(delta) {
            let (node, current_limit_bytes) = (c.node(), c.mem.limit_bytes());
            match &mut self.mode {
                Mode::Escra(plane) => {
                    let oom = ToController::OomEvent {
                        container: cid,
                        shortfall_bytes,
                        current_limit_bytes,
                    };
                    let killed = plane.send_from_node(&mut self.cluster, now, node, oom);
                    self.fail_killed(&killed, now);
                    if !killed.contains(&cid) {
                        // Limit raised (or, under faults, the grant was
                        // lost and the container stays trapped at the old
                        // limit to re-OOM next period): retry the charge
                        // (the paper's "request lookup penalty" is
                        // sub-millisecond).
                        let _ = self
                            .cluster
                            .container_mut(cid)
                            .expect("container")
                            .mem
                            .try_charge(delta);
                    }
                }
                Mode::Profile => {
                    // Profiling runs are uncapped; grow the limit.
                    c.mem
                        .set_limit_bytes(current_limit_bytes + shortfall_bytes + 64 * MIB);
                    let _ = c.mem.try_charge(delta);
                }
                Mode::Static | Mode::Periodic { .. } => {
                    // Vanilla kernel behaviour: OOM kill + restart. A
                    // periodic scaler learns about the kill (Autopilot
                    // bumps its memory estimate on OOM events).
                    if let Mode::Periodic { scaler, .. } = &mut self.mode {
                        scaler.on_oom(cid, current_limit_bytes);
                    }
                    self.cluster.oom_kill(cid, now).expect("known container");
                    self.fail_queue(idx, now);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use escra_core::EscraConfig;
    use escra_workloads::teastore;
    use proptest::prelude::*;

    fn quick_cfg(policy: Policy) -> MicroSimConfig {
        MicroSimConfig::new(teastore(), WorkloadKind::Fixed { rps: 150.0 }, policy, 42)
            .with_duration(SimDuration::from_secs(12))
    }

    /// Everything observable about a run except the engine counters.
    fn digest(out: &MicroSimOutput) -> String {
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}",
            out.metrics, out.network, out.controller_stats, out.fault_stats, out.profiles
        )
    }

    #[test]
    fn escra_run_completes_requests() {
        let out = run(&quick_cfg(Policy::escra_default()));
        let m = &out.metrics;
        // 150 rps over 12s ~ 1800 requests; most must succeed.
        assert!(
            m.latency.successes() > 1_500,
            "successes {}",
            m.latency.successes()
        );
        assert!(m.throughput() > 120.0, "tput {}", m.throughput());
        assert!(m.latency.p(50.0) > 0.0);
        assert_eq!(m.oom_kills, 0, "Escra must absorb all OOMs");
        assert!(out.network.expect("escra network").total_bytes() > 0);
        assert!(out.controller_stats.expect("stats").cpu_stats_ingested > 0);
        assert!(out.sim.rounds > 0 && out.sim.heap_events > out.sim.rounds);
    }

    #[test]
    fn static_run_completes_requests() {
        let out = run(&quick_cfg(Policy::static_1_5x()));
        assert!(out.metrics.latency.successes() > 1_400);
        assert!(out.network.is_none());
    }

    #[test]
    fn autopilot_run_completes_requests() {
        let out = run(&quick_cfg(Policy::autopilot_default()));
        assert!(
            out.metrics.latency.successes() > 1_200,
            "successes {} failures {} ooms {}",
            out.metrics.latency.successes(),
            out.metrics.latency.failures(),
            out.metrics.oom_kills
        );
    }

    #[test]
    fn escra_has_less_cpu_slack_than_static() {
        let escra = run(&quick_cfg(Policy::escra_default()));
        let st = run(&quick_cfg(Policy::static_1_5x()));
        let e50 = escra.metrics.slack.cpu_p(50.0);
        let s50 = st.metrics.slack.cpu_p(50.0);
        assert!(
            e50 < s50,
            "escra median cpu slack {e50} should be below static {s50}"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(&quick_cfg(Policy::escra_default()));
        let b = run(&quick_cfg(Policy::escra_default()));
        assert_eq!(digest(&a), digest(&b));
        assert_eq!(a.sim, b.sim);
    }

    #[test]
    fn phased_runs_equal_plain_runs() {
        // Reading the host clock at phase boundaries moves nothing, with
        // or without a profiling pre-run.
        for policy in [Policy::escra_default(), Policy::autopilot_default()] {
            let cfg = quick_cfg(policy);
            let plain = run(&cfg);
            let (phased, phases) = run_phased(&cfg);
            assert_eq!(digest(&phased), digest(&plain));
            assert_eq!(phased.sim, plain.sim);
            assert_eq!(phased.pump_guard_trips, plain.pump_guard_trips);
            for phase in [Phase::Grants, Phase::Sampling] {
                assert_eq!(phases.calls(phase), plain.sim.rounds, "{}", phase.name());
            }
            let spans: f64 = Phase::ALL.iter().map(|&p| phases.secs(p)).sum();
            assert!(spans > 0.0 && spans <= phases.loop_secs());
        }
    }

    #[test]
    fn profile_run_measures_peaks() {
        let cfg = quick_cfg(Policy::static_1_5x());
        let profiles = profile_run(&cfg);
        assert_eq!(profiles.len(), cfg.app.container_count());
        // The webui tier (first containers) must show real usage.
        assert!(profiles[0].peak_cpu_cores > 0.05);
        assert!(profiles[0].peak_mem_bytes > 0);
    }

    /// A single 4-core node far below the workload's demand: requests
    /// queue past their 2 s timeout and failures are plentiful.
    fn overloaded_cfg() -> MicroSimConfig {
        let mut cfg = MicroSimConfig::new(
            teastore(),
            WorkloadKind::Fixed { rps: 400.0 },
            Policy::escra_default(),
            11,
        )
        .with_duration(SimDuration::from_secs(10));
        cfg.worker_nodes = 1;
        cfg.node_cores = 4;
        cfg.request_timeout = SimDuration::from_secs(2);
        cfg
    }

    fn escra_with_period(ms: u64) -> Policy {
        Policy::Escra(EscraConfig {
            report_period: SimDuration::from_millis(ms),
            ..EscraConfig::default()
        })
    }

    #[test]
    fn bg_rate_is_invariant_across_report_periods() {
        // A per-window Bernoulli draw would couple the background rate
        // to the report period; the exponential chains make it identical
        // (same per-container streams, period-independent).
        let mut counts = Vec::new();
        for ms in [50u64, 100, 200] {
            let cfg = MicroSimConfig::new(
                teastore(),
                WorkloadKind::Fixed { rps: 100.0 },
                escra_with_period(ms),
                5,
            )
            .with_duration(SimDuration::from_secs(10));
            let out = run(&cfg);
            assert!(out.sim.bg_jobs > 0, "no background work at {ms}ms");
            counts.push(out.sim.bg_jobs);
        }
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "bg counts vary with report period: {counts:?}"
        );
    }

    #[test]
    fn exact_timeouts_bound_success_latency() {
        // No recorded success may exceed the request timeout: the
        // Timeout event fires before any Round that could complete the
        // request later.
        let cfg = overloaded_cfg();
        let out = run(&cfg);
        assert!(out.sim.timeout_failures > 0, "scenario not overloaded");
        // Kill-induced queue failures may add to the total.
        assert!(out.sim.timeout_failures <= out.metrics.latency.failures());
        let max_ms = out.metrics.latency.p(100.0);
        assert!(
            max_ms <= cfg.request_timeout.as_secs_f64() * 1e3 + 1e-6,
            "success latency {max_ms}ms exceeds the {:?} timeout",
            cfg.request_timeout
        );
    }

    #[test]
    fn report_plan_runs_are_deterministic_and_complete() {
        let plan = ReportPlan {
            period_multipliers: vec![1, 2, 3],
            jitter_frac: 0.5,
        };
        let cfg = quick_cfg(Policy::escra_default()).with_report_plan(plan);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(digest(&a), digest(&b));
        assert!(a.metrics.latency.successes() > 1_400);
        // Slower reporters batch multiple windows per datagram: fewer
        // messages than the aligned schedule, but none lost.
        let aligned = run(&quick_cfg(Policy::escra_default()));
        assert!(
            a.network.as_ref().unwrap().total_bytes()
                < aligned.network.as_ref().unwrap().total_bytes(),
            "jittered/slow reports should shrink control-plane bytes"
        );
    }

    /// Drives [`ReportCohorts`] through a queue that also carries the
    /// `Round`/`PostRound` grid, as `run_events` does. Returns the
    /// `(time, node)` flushes in order and the `NodeReport` events popped.
    fn cohort_flushes(
        plan: &ReportPlan,
        base: SimDuration,
        seed: u64,
        reporting: &[usize],
        last_end: SimTime,
    ) -> (Vec<(SimTime, usize)>, u64) {
        let cohorts = ReportCohorts::new(plan, base, seed, reporting);
        let mut q: EventQueue<Ev> = EventQueue::new();
        let mut t = SimTime::ZERO + base;
        while t <= last_end {
            q.push_keyed(t, ev_key(Ev::Round), Ev::Round);
            q.push_keyed(t, ev_key(Ev::PostRound), Ev::PostRound);
            t += base;
        }
        cohorts.schedule(&mut q, last_end);
        let (mut flushes, mut pops, mut due) = (Vec::new(), 0, Vec::new());
        while let Some((t, ev)) = q.pop() {
            if let Ev::NodeReport { cohort } = ev {
                pops += 1 + cohorts.take_due(cohort, t, &mut q, last_end, &mut due);
                flushes.extend(due.iter().map(|&node| (t, node)));
            }
        }
        (flushes, pops)
    }

    proptest! {
        /// The cohort scheduler flushes exactly what one timer per node
        /// would: the merge of the per-node arithmetic progressions
        /// `first_due + k × period ≤ last_end`, ordered by `(time, node)`.
        #[test]
        fn cohort_flushes_are_the_sorted_merge_of_per_node_progressions(
            period_multipliers in proptest::collection::vec(1u32..5, 0..5),
            jittered in any::<bool>(),
            nodes in 1usize..41,
            stride in 1usize..4,
            rounds in 1u64..40,
            seed in 0u64..1_000,
        ) {
            let plan = ReportPlan {
                period_multipliers,
                jitter_frac: if jittered { 0.3 } else { 0.0 },
            };
            let base = SimDuration::from_millis(100);
            let last_end = SimTime::ZERO + base * rounds;
            // Idle nodes never report: leave gaps in the node indices.
            let reporting: Vec<usize> = (0..nodes).step_by(stride).collect();

            let mut expected = Vec::new();
            for &node in &reporting {
                let period = plan.node_period(base, node);
                let mut due = SimTime::ZERO + period + plan.node_phase(base, seed, node);
                while due <= last_end {
                    expected.push((due, node));
                    due += period;
                }
            }
            expected.sort_unstable();

            let (flushes, pops) = cohort_flushes(&plan, base, seed, &reporting, last_end);
            prop_assert_eq!(&flushes, &expected);
            if plan == ReportPlan::aligned() {
                prop_assert_eq!(pops, rounds, "an aligned plan pops one report event a round");
            }
            prop_assert!(pops <= expected.len() as u64);
        }
    }

    /// A value from the edges the short-circuits must hold at, by
    /// `kind`: zero, a subnormal, an ordinary share of a 4-core 100 ms
    /// node, a huge value, one whose sums overflow to infinity, infinity
    /// and NaN. `x` lies in `[0, 1)`.
    fn edge_value(kind: u8, x: f64) -> f64 {
        match kind {
            0 => 0.0,
            1 => f64::from_bits(1 + (x * 1e6) as u64),
            2 => x * 200_000.0,
            3 => x * 1e300,
            4 => x * f64::MAX,
            5 => f64::INFINITY,
            _ => f64::NAN,
        }
    }

    /// The grant rule `round_grants` had before it short-circuited: every
    /// member's demand computed, their sum tested.
    fn parent_grants(capacity: f64, potentials: &[f64], demands: &[f64]) -> Vec<f64> {
        let total_want: f64 = demands.iter().sum();
        if total_want <= capacity {
            potentials.to_vec()
        } else {
            escra_cfs::node::arbitrate(capacity, demands)
        }
    }

    proptest! {
        /// [`NodeGrants`] grants what the parent's rule grants, bit for
        /// bit, and asks no demand when the potentials fit. Members carry
        /// zero, subnormal, ordinary, huge and overflowing potentials and
        /// queued work, inside and past warm-up; the capacity is a fixed
        /// node's, the potentials' exact sum or the float below it, the
        /// demands' exact sum, or zero.
        #[test]
        fn short_circuited_grants_equal_the_parent_rule(
            nodes in proptest::collection::vec(
                proptest::collection::vec(
                    (
                        (0u8..5, 0.0f64..1.0),
                        any::<bool>(),
                        proptest::collection::vec((0u8..5, 0.0f64..1.0), 0..6),
                    ),
                    0..41,
                ),
                1..4,
            ),
            capacity_kind in 0u8..5,
        ) {
            let mut node_grants = NodeGrants::default();
            for members in &nodes {
                let potentials: Vec<f64> =
                    members.iter().map(|&((k, x), _, _)| edge_value(k, x)).collect();
                let queues: Vec<VecDeque<StageJob>> = members
                    .iter()
                    .map(|(_, _, jobs)| {
                        jobs.iter()
                            .map(|&(k, x)| StageJob {
                                request: 0,
                                remaining_us: edge_value(k, x),
                                queued_at: SimTime::ZERO,
                            })
                            .collect()
                    })
                    .collect();
                let startup: Vec<f64> = members
                    .iter()
                    .map(|&(_, warming, _)| if warming { 50_000.0 } else { 0.0 })
                    .collect();
                let demand = |k: usize, potential: f64| {
                    capped_demand_us(&queues[k], startup[k], potential)
                };
                let demands: Vec<f64> =
                    potentials.iter().enumerate().map(|(k, &p)| demand(k, p)).collect();
                let potential_sum = potentials.iter().fold(0.0, |sum, p| sum + p);
                let capacity = match capacity_kind {
                    0 => 400_000.0,
                    1 => potential_sum,
                    2 => potential_sum.next_down().max(0.0),
                    3 => demands.iter().fold(0.0, |sum, d| sum + d),
                    _ => 0.0,
                };
                let want = parent_grants(capacity, &potentials, &demands);

                node_grants.clear();
                for (k, &potential) in potentials.iter().enumerate() {
                    node_grants.push(k, potential);
                }
                let mut asked = 0;
                let got: Vec<(usize, f64)> = node_grants
                    .grants(capacity, |k, potential| {
                        asked += 1;
                        demand(k, potential)
                    })
                    .collect();
                prop_assert_eq!(got.len(), want.len());
                for (k, (&(member, g), &w)) in got.iter().zip(&want).enumerate() {
                    prop_assert_eq!(member, k);
                    prop_assert_eq!(g.to_bits(), w.to_bits(), "member {} of {}", k, want.len());
                }
                let fits = potential_sum <= capacity;
                prop_assert_eq!(asked, if fits { 0 } else { potentials.len() });
            }
        }

        /// `round_drain` skips an empty queue past its warm-up. The
        /// parent's body, run on one with any positive grant (infinity
        /// included), drains nothing and writes the very `+0.0` the skip
        /// leaves.
        #[test]
        fn an_idle_queue_past_warm_up_consumes_nothing(kind in 0u8..6, x in 0.0f64..1.0) {
            let grant = edge_value(kind, x);
            if grant <= 0.0 {
                return Ok(()); // the parent skipped these too
            }
            let mut completions = Vec::new();
            let drained_us = drain_fifo_into(
                &mut VecDeque::new(),
                SimTime::from_secs(20),
                SimTime::from_millis(20_100),
                8.0,
                grant,
                &mut completions,
            );
            let startup_us: f64 = 0.0;
            let consumed = drained_us + startup_us.min(grant - drained_us).max(0.0);
            prop_assert_eq!(consumed.to_bits(), 0.0f64.to_bits());
            prop_assert!(completions.is_empty());
        }
    }

    proptest! {
        /// The timeout lane beside the heap pops exactly as one heap
        /// holding every event would — deadlines that fall on `Round`,
        /// `Background`, `NodeReport` and `PostRound` instants and
        /// consecutive requests sharing a deadline included.
        #[test]
        fn timeout_lane_and_heap_pop_as_one_heap_would(
            others in proptest::collection::vec((0u64..40, 0u8..4, 0usize..5), 0..60),
            gaps in proptest::collection::vec(0u64..3, 0..60),
        ) {
            let mut one_heap: EventQueue<Ev> = EventQueue::new();
            let mut heap: EventQueue<Ev> = EventQueue::new();
            for &(step, class, entity) in &others {
                let ev = match class {
                    0 => Ev::Round,
                    1 => Ev::Background { container: entity },
                    2 => Ev::NodeReport { cohort: entity },
                    _ => Ev::PostRound,
                };
                let t = SimTime::from_millis(step * 50);
                one_heap.push_keyed(t, ev_key(ev), ev);
                heap.push_keyed(t, ev_key(ev), ev);
            }
            // Half the deadlines land on the 50 ms grid of the others; a
            // zero gap ties a request with the one before it.
            let mut lane = VecDeque::new();
            let mut due = SimTime::ZERO;
            for (request, &gap) in gaps.iter().enumerate() {
                due += SimDuration::from_millis(gap * 25);
                let ev = Ev::Timeout { request };
                one_heap.push_keyed(due, ev_key(ev), ev);
                lane.push_back((due, request));
            }
            let keyed = |(t, ev): (SimTime, Ev)| (t, ev_key(ev));
            let want: Vec<_> = std::iter::from_fn(|| one_heap.pop().map(keyed)).collect();
            let got: Vec<_> =
                std::iter::from_fn(|| pop_next(&mut lane, &mut heap).map(keyed)).collect();
            prop_assert_eq!(got, want);
        }
    }

    /// The buffers `round_account` fills, after a whole run (the last
    /// event of a run is a flush, so every buffer ends up empty).
    fn pending_stats_after_run(cfg: &MicroSimConfig) -> Vec<Vec<CpuStatsEntry>> {
        let mut sim = Sim::new(cfg, false, &[], |_| NoopSink, ());
        sim.run_events();
        assert!(!sim.active_nodes.is_empty());
        sim.active_nodes
            .iter()
            .map(|&node| std::mem::take(&mut sim.pending_stats[node]))
            .collect()
    }

    #[test]
    fn a_faultless_aligned_flush_keeps_the_node_buffer() {
        // The Controller reads the entries by reference and the buffer is
        // cleared in place: no envelope, no clone, no reallocation a
        // round. Moving the entries into an envelope would leave a
        // capacity-0 `Vec` behind after the final flush.
        let cfg = quick_cfg(Policy::escra_default()).with_duration(SimDuration::from_secs(2));
        for buf in pending_stats_after_run(&cfg) {
            assert!(buf.is_empty());
            assert!(buf.capacity() > 0, "flush gave the node's buffer away");
        }
        // A fabric that duplicates every datagram needs real envelopes.
        let dup = cfg.with_faults(FaultPlan::none().with_duplicates(1.0));
        for buf in pending_stats_after_run(&dup) {
            assert!(buf.is_empty());
            assert_eq!(buf.capacity(), 0, "duplicated datagram went by reference");
        }
    }

    #[test]
    fn randomized_runs_are_deterministic() {
        // Property: for randomly drawn configurations, two runs are
        // identical. Parameters are drawn from the vendored proptest
        // shim's deterministic RNG.
        use proptest::test_runner::TestRng;
        let mut rng = TestRng::from_name("randomized_runs_are_deterministic");
        for case in 0..4 {
            let period_ms = [50u64, 100, 150][rng.next_u64() as usize % 3];
            let seed = rng.next_u64();
            let cfg = MicroSimConfig::new(
                teastore(),
                WorkloadKind::Fixed { rps: 120.0 },
                escra_with_period(period_ms),
                seed,
            )
            .with_duration(SimDuration::from_secs(4));
            let a = run(&cfg);
            let b = run(&cfg);
            assert_eq!(
                digest(&a),
                digest(&b),
                "case {case}: period {period_ms}ms seed {seed}"
            );
        }
    }
}
