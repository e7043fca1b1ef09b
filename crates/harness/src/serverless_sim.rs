//! The serverless experiment simulator (paper §VI-F/G, Figs. 7–9).
//!
//! Models an OpenWhisk-style invoker: user-action pods are created on
//! demand (cold start), reused while warm, and torn down after an idle
//! timeout. Vanilla OpenWhisk gives every pod a static 1 vCPU / 256 MiB;
//! with Escra enabled the whole namespace is treated as one Distributed
//! Container and pods are right-sized continuously.
//!
//! The run is driven by `Round` events on the discrete-event heap
//! ([`escra_simcore::events::EventQueue`]). While the invoker is
//! completely idle — no pods, no pending activations — the driver
//! fast-forwards across the gap to the next arrival instead of
//! executing empty windows (see [`ServerlessConfig::fast_forward_idle`]),
//! so the long inter-iteration gaps of ImageProcess cost almost nothing.

use crate::microsim::{agent_for, apply_limit_updates};
use crate::policy::BaselineScalerKind;
use escra_baselines::{PeriodicScaler, UsageSample};
use escra_cfs::{node::arbitrate, ChargeOutcome, MIB};
use escra_cluster::{AppId, Cluster, ContainerId, ContainerSpec, ContainerState, NodeSpec};
use escra_core::telemetry::{ToController, CPU_STATS_WIRE_BYTES, OOM_EVENT_WIRE_BYTES};
use escra_core::{Action, Agent, AgentReport, Controller, EscraConfig};
use escra_metrics::RunMetrics;
use escra_net::BandwidthAccountant;
use escra_simcore::events::EventQueue;
use escra_simcore::rng::SimRng;
use escra_simcore::time::{SimDuration, SimTime};
use escra_workloads::serverless::{
    image_process_arrivals, GridSearchJob, GRID_SEARCH_WORKERS, IMAGE_PROCESS_ITERATION,
};
use escra_workloads::{ActionProfile, OpenWhiskConfig};
use std::collections::VecDeque;

/// Which serverless application to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerlessApp {
    /// ImageProcess: one request every 0.8 s for 10 min per iteration,
    /// pods cold-start at each iteration boundary.
    ImageProcess {
        /// Number of iterations (paper: 4).
        iterations: usize,
    },
    /// GridSearch: ~115 worker pods drain 960 tasks.
    GridSearch,
}

/// Configuration of one serverless run.
#[derive(Debug, Clone)]
pub struct ServerlessConfig {
    /// The application.
    pub app: ServerlessApp,
    /// The OpenWhisk pod/pool settings.
    pub openwhisk: OpenWhiskConfig,
    /// `Some` enables Escra management of the namespace.
    pub escra: Option<EscraConfig>,
    /// `Some` runs a [`PeriodicScaler`] baseline (tiny autoscaler or
    /// ARC-V) over the pod population instead — mutually exclusive with
    /// `escra`.
    pub baseline: Option<BaselineScalerKind>,
    /// Scales the Escra global limits (the paper's "80 % fewer
    /// cores/MiB" GridSearch case uses 0.8).
    pub resource_scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Worker nodes (paper: 3 for ImageProcess, 4 for GridSearch).
    pub worker_nodes: usize,
    /// Cores per worker (paper: 2× 8-core Xeon E5-2650v2 = 16).
    pub node_cores: u32,
    /// Fast-forward across fully idle gaps (default). Skipped windows
    /// replay only their observable residue — the Escra controller tick
    /// and the per-second zero-limit samples — so the output is
    /// bit-identical with the flag off.
    pub fast_forward_idle: bool,
}

impl ServerlessConfig {
    /// Paper-like ImageProcess setup (Υ = 35 per §VI-F when Escra is on).
    pub fn image_process(escra: Option<EscraConfig>, seed: u64) -> Self {
        ServerlessConfig {
            app: ServerlessApp::ImageProcess { iterations: 4 },
            openwhisk: OpenWhiskConfig::default(),
            // Υ = 35 (paper §VI-F): short-lived actions transitioning
            // idle → busy must regain quota fast, so the growth cap is
            // raised along with Υ.
            escra: escra.map(|c| {
                let mut c = c.with_upsilon(35.0);
                c.max_quota_growth_factor = 2.5;
                c
            }),
            baseline: None,
            resource_scale: 1.0,
            seed,
            worker_nodes: 3,
            node_cores: 16,
            fast_forward_idle: true,
        }
    }

    /// Paper-like GridSearch setup (Υ = 20).
    pub fn grid_search(escra: Option<EscraConfig>, seed: u64) -> Self {
        ServerlessConfig {
            app: ServerlessApp::GridSearch,
            openwhisk: OpenWhiskConfig::default(),
            escra,
            baseline: None,
            resource_scale: 1.0,
            seed,
            worker_nodes: 4,
            node_cores: 16,
            fast_forward_idle: true,
        }
    }
}

/// Output of a serverless run.
#[derive(Debug)]
pub struct ServerlessOutput {
    /// Latency (per request for ImageProcess; unused for GridSearch) and
    /// slack/limit series.
    pub metrics: RunMetrics,
    /// GridSearch end-to-end job latency (None for ImageProcess).
    pub job_latency: Option<SimDuration>,
    /// Peak concurrent pods.
    pub peak_pods: usize,
    /// Control-plane bytes (Escra runs only).
    pub network: Option<BandwidthAccountant>,
    /// Windows executed in full.
    pub rounds_executed: u64,
    /// Idle windows fast-forwarded across.
    pub rounds_fast_forwarded: u64,
}

#[derive(Debug, Clone, Copy)]
enum PodState {
    Starting,
    Idle { since: SimTime },
    Exec { arrival: SimTime, remaining_us: f64 },
    Io { arrival: SimTime, until: SimTime },
}

#[derive(Debug)]
struct Pod {
    cid: ContainerId,
    state: PodState,
    /// CPU-time consumed since the last 1 s sample, in µs — the usage
    /// integral a baseline [`PeriodicScaler`] observes.
    sec_usage_us: f64,
}

/// The serverless heap event: a window close. All pod activity is
/// resolved inside windows, so a single `Round` chain (plus the idle
/// fast-forward) is the whole taxonomy here.
#[derive(Debug, Clone, Copy)]
enum SlsEv {
    Round,
}

/// Maximum cores one action can exploit (slightly above 1 vCPU: some
/// phases of real actions are parallel, which is where Escra's modest
/// latency gains come from).
const ACTION_PARALLELISM: f64 = 1.2;

/// Runs one serverless experiment.
// The index loop over `pods` mutates sibling state (cluster, job) while
// reading pod entries, which an iterator borrow cannot express.
#[allow(clippy::needless_range_loop)]
pub fn run_serverless(cfg: &ServerlessConfig, profile: &ActionProfile) -> ServerlessOutput {
    let period = cfg
        .escra
        .as_ref()
        .map(|c| c.report_period)
        .unwrap_or(SimDuration::from_millis(100));
    let period_us = period.as_micros() as f64;
    let app_id = AppId::new(0);
    let mut cluster = Cluster::new(vec![
        NodeSpec {
            cores: cfg.node_cores,
            mem_bytes: 64 * 1024 * MIB,
        };
        cfg.worker_nodes
    ]);
    let mut rng = SimRng::new(cfg.seed).fork(0x736c73); // "sls"
    let mut accountant = BandwidthAccountant::new();
    let mut controller = cfg.escra.as_ref().map(|ecfg| {
        let mut c = Controller::new(ecfg.clone());
        let pool_mem =
            (cfg.openwhisk.container_pool_mem_mib as f64 * cfg.resource_scale) as u64 * MIB;
        let pool_cpu = cfg.openwhisk.implied_global_cpu_cores() * cfg.resource_scale;
        c.register_app(app_id, pool_cpu, pool_mem);
        c
    });
    let mut agents: Vec<Agent> = cluster.nodes().iter().map(|n| Agent::new(n.id())).collect();

    assert!(
        cfg.escra.is_none() || cfg.baseline.is_none(),
        "escra and a baseline scaler are mutually exclusive"
    );
    let mut scaler: Option<Box<dyn PeriodicScaler>> = cfg.baseline.as_ref().map(|k| k.build());
    let scaler_update_secs = cfg
        .baseline
        .as_ref()
        .map(|k| (k.update_period().as_micros() / 1_000_000).max(1))
        .unwrap_or(1);

    let mut pods: Vec<Pod> = Vec::new();
    let mut pending: VecDeque<SimTime> = VecDeque::new(); // activation arrivals
    let mut metrics = RunMetrics::new(if cfg.escra.is_some() {
        "escra-openwhisk".to_string()
    } else if let Some(k) = &cfg.baseline {
        format!("{}-openwhisk", k.name())
    } else {
        "openwhisk".to_string()
    });
    let mut peak_pods = 0usize;
    let mut job = match cfg.app {
        ServerlessApp::GridSearch => Some(GridSearchJob::paper()),
        _ => None,
    };
    let mut job_latency = None;

    // Build the arrival schedule.
    let mut schedule: VecDeque<SimTime> = match cfg.app {
        ServerlessApp::ImageProcess { iterations } => {
            let gap = SimDuration::from_secs(120); // idle gap between iterations
            let mut all = Vec::new();
            for i in 0..iterations {
                let start = SimTime::ZERO + (IMAGE_PROCESS_ITERATION + gap) * i as u64;
                all.extend(image_process_arrivals(start));
            }
            all.into()
        }
        ServerlessApp::GridSearch => VecDeque::new(),
    };
    let end = match cfg.app {
        ServerlessApp::ImageProcess { iterations } => {
            SimTime::ZERO
                + (IMAGE_PROCESS_ITERATION + SimDuration::from_secs(120)) * iterations as u64
        }
        ServerlessApp::GridSearch => SimTime::ZERO + SimDuration::from_secs(1_800),
    };

    // GridSearch: spawn the worker fleet at t=0.
    if matches!(cfg.app, ServerlessApp::GridSearch) {
        for _ in 0..GRID_SEARCH_WORKERS {
            spawn_pod(
                &mut cluster,
                &mut pods,
                cfg,
                app_id,
                &mut controller,
                &mut scaler,
                &mut agents,
                &mut accountant,
                SimTime::ZERO,
            );
        }
    }

    let mut next_second = SimTime::from_secs(1);
    let mut assign_cursor = 0usize;
    let mut rounds_executed = 0u64;
    let mut rounds_fast_forwarded = 0u64;
    // Per-node Exec membership, rebuilt in one pass over the pods per
    // window (the old loop rescanned every pod once per node).
    let mut node_exec: Vec<Vec<usize>> = vec![Vec::new(); cluster.nodes().len()];
    // The one action buffer every Controller call appends to and
    // `drive_actions` drains.
    let mut actions: Vec<Action> = Vec::new();
    // Final simulated time: the last window boundary reached (or the
    // window start when a finished job breaks the run mid-grid).
    let mut t_final = SimTime::ZERO;

    let mut q: EventQueue<SlsEv> = EventQueue::new();
    q.push(SimTime::ZERO + period, SlsEv::Round);
    while let Some((t_next, SlsEv::Round)) = q.pop() {
        // The window [t, t_next) resolves now, at its close.
        let t = t_next - period;
        rounds_executed += 1;
        cluster.tick(t);
        // No Container Watcher subscribes here: drop the lifecycle feed
        // each window instead of letting it grow for the whole run.
        cluster.discard_events();

        // Promote started pods, claim work.
        for pod in pods.iter_mut() {
            if matches!(pod.state, PodState::Starting)
                && cluster.container(pod.cid).is_some_and(|c| c.is_running())
            {
                pod.state = PodState::Idle { since: t };
            }
        }

        // New arrivals this period.
        while let Some(&at) = schedule.front() {
            if at < t_next {
                pending.push_back(at);
                schedule.pop_front();
            } else {
                break;
            }
        }

        // Assign pending activations to idle pods, rotating the start of
        // the scan: OpenWhisk spreads activations across its warm pool,
        // which is what keeps every warm pod's static reservation alive.
        let np = pods.len();
        if np > 0 {
            for k in 0..np {
                if pending.is_empty() {
                    break;
                }
                let pi = (assign_cursor + k) % np;
                if let PodState::Idle { .. } = pods[pi].state {
                    let arrival = pending.pop_front().expect("non-empty");
                    pods[pi].state = PodState::Exec {
                        arrival,
                        remaining_us: profile.sample_exec_us(&mut rng),
                    };
                }
            }
            assign_cursor = (assign_cursor + 1) % np;
        }
        let max_pods = (cfg.openwhisk.max_pods() as f64 * cfg.resource_scale) as usize;
        let mut to_spawn = pending.len().min(max_pods.saturating_sub(pods.len()));
        while to_spawn > 0 {
            spawn_pod(
                &mut cluster,
                &mut pods,
                cfg,
                app_id,
                &mut controller,
                &mut scaler,
                &mut agents,
                &mut accountant,
                t,
            );
            to_spawn -= 1;
        }
        // GridSearch: idle workers claim tasks.
        if let Some(job) = job.as_mut() {
            for pod in pods.iter_mut() {
                if let PodState::Idle { .. } = pod.state {
                    if let Some(_task) = job.try_claim() {
                        pod.state = PodState::Exec {
                            arrival: t,
                            remaining_us: profile.sample_exec_us(&mut rng),
                        };
                    }
                }
            }
        }
        peak_pods = peak_pods.max(pods.len());

        // CPU: arbitrate execution among busy pods per node. One pass
        // groups running Exec pods by node (in pod order).
        for (pi, pod) in pods.iter().enumerate() {
            if let PodState::Exec { .. } = pod.state {
                let c = cluster.container(pod.cid).expect("pod container");
                if c.is_running() {
                    node_exec[c.node().as_u64() as usize].push(pi);
                }
            }
        }
        for node in 0..node_exec.len() {
            let capacity = cfg.node_cores as f64 * period_us;
            let mut want = Vec::with_capacity(node_exec[node].len());
            for &pi in &node_exec[node] {
                let c = cluster.container(pods[pi].cid).expect("pod container");
                let remaining = match pods[pi].state {
                    PodState::Exec { remaining_us, .. } => remaining_us,
                    _ => 0.0,
                };
                want.push(
                    remaining
                        .min(ACTION_PARALLELISM * period_us)
                        .min(c.cpu.runtime_remaining_us()),
                );
            }
            let grants = arbitrate(capacity, &want);
            for (k, &pi) in node_exec[node].iter().enumerate() {
                let granted = grants[k];
                let cid = pods[pi].cid;
                if let PodState::Exec {
                    arrival,
                    remaining_us,
                } = pods[pi].state
                {
                    let c = cluster.container_mut(cid).expect("pod container");
                    c.cpu.consume(granted);
                    let left = remaining_us - granted;
                    if left <= 1.0 {
                        // Completed mid-period; interpolate completion.
                        let frac = if granted > 0.0 {
                            (remaining_us / granted).clamp(0.0, 1.0)
                        } else {
                            1.0
                        };
                        let done_at = t + period.mul_f64(frac);
                        pods[pi].state = PodState::Io {
                            arrival,
                            until: done_at + profile.io_wait,
                        };
                    } else {
                        if c.cpu.runtime_remaining_us() <= period_us * 0.01 {
                            c.cpu.mark_throttled();
                        }
                        pods[pi].state = PodState::Exec {
                            arrival,
                            remaining_us: left,
                        };
                    }
                }
            }
        }
        for members in node_exec.iter_mut() {
            members.clear();
        }

        // IO completions.
        for pod in pods.iter_mut() {
            if let PodState::Io { arrival, until } = pod.state {
                if until <= t_next {
                    metrics
                        .latency
                        .record_success(until.duration_since(arrival));
                    if let Some(job) = job.as_mut() {
                        job.complete();
                        if job.is_done() && job_latency.is_none() {
                            job_latency = Some(until.duration_since(SimTime::ZERO));
                        }
                    }
                    pod.state = PodState::Idle { since: until };
                }
            }
        }

        // Memory targets + OOM handling.
        for pi in 0..pods.len() {
            let cid = pods[pi].cid;
            if !cluster.container(cid).is_some_and(|c| c.is_running()) {
                continue;
            }
            let target = match pods[pi].state {
                PodState::Exec { .. } | PodState::Io { .. } => profile.mem_mib * MIB,
                _ => profile.idle_mem_mib * MIB,
            };
            let usage = cluster.container(cid).expect("pod").mem.usage_bytes();
            if target <= usage {
                cluster
                    .container_mut(cid)
                    .expect("pod")
                    .mem
                    .uncharge(usage - target);
                continue;
            }
            let delta = target - usage;
            let outcome = cluster
                .container_mut(cid)
                .expect("pod")
                .mem
                .try_charge(delta);
            if let ChargeOutcome::WouldOom { shortfall_bytes } = outcome {
                if let Some(ctl) = controller.as_mut() {
                    accountant.record(t_next, OOM_EVENT_WIRE_BYTES);
                    let current_limit_bytes =
                        cluster.container(cid).expect("pod").mem.limit_bytes();
                    ctl.handle_into(
                        t_next,
                        ToController::OomEvent {
                            container: cid,
                            shortfall_bytes,
                            current_limit_bytes,
                        },
                        &mut actions,
                    );
                    let killed =
                        drive_actions(&mut cluster, &mut agents, ctl, &mut actions, t_next);
                    if !killed {
                        let _ = cluster
                            .container_mut(cid)
                            .expect("pod")
                            .mem
                            .try_charge(delta);
                    } else {
                        if matches!(pods[pi].state, PodState::Exec { .. } | PodState::Io { .. }) {
                            if let Some(job) = job.as_mut() {
                                job.abandon(); // the task goes back to the queue
                            }
                        }
                        pods[pi].state = PodState::Starting;
                    }
                } else {
                    if let Some(s) = scaler.as_mut() {
                        // Tell the baseline so its next recommendation
                        // can raise the memory limit.
                        let limit = cluster.container(cid).expect("pod").mem.limit_bytes();
                        s.on_oom(cid, limit);
                    }
                    cluster.oom_kill(cid, t_next).expect("pod exists");
                    if matches!(pods[pi].state, PodState::Exec { .. } | PodState::Io { .. }) {
                        if let Some(job) = job.as_mut() {
                            job.abandon();
                        }
                    }
                    pods[pi].state = PodState::Starting;
                }
            }
        }

        // Telemetry + reclamation (Escra) / usage integration (baseline).
        for pod in pods.iter_mut() {
            let c = cluster.container_mut(pod.cid).expect("pod");
            let stats = c.cpu.end_period();
            pod.sec_usage_us += stats.usage_us;
            if let Some(ctl) = controller.as_mut() {
                if matches!(
                    cluster.container(pod.cid).expect("pod").state(),
                    ContainerState::Running
                ) {
                    accountant.record(t_next, CPU_STATS_WIRE_BYTES);
                    ctl.handle_into(
                        t_next,
                        ToController::CpuStats {
                            container: pod.cid,
                            stats,
                        },
                        &mut actions,
                    );
                    drive_actions(&mut cluster, &mut agents, ctl, &mut actions, t_next);
                }
            }
        }
        if let Some(ctl) = controller.as_mut() {
            ctl.tick_into(t_next, &mut actions);
            drive_actions(&mut cluster, &mut agents, ctl, &mut actions, t_next);
        }

        // Idle-timeout teardown.
        let idle_timeout = cfg.openwhisk.idle_timeout;
        let mut removed = Vec::new();
        for (pi, pod) in pods.iter().enumerate() {
            if let PodState::Idle { since } = pod.state {
                if t_next.duration_since(since) >= idle_timeout {
                    removed.push(pi);
                }
            }
        }
        for pi in removed.into_iter().rev() {
            let cid = pods[pi].cid;
            let node = cluster.container(cid).expect("pod").node();
            let _ = cluster.terminate(cid, t_next);
            if let Some(ctl) = controller.as_mut() {
                let _ = ctl.deregister_container(cid);
            }
            if let Some(s) = scaler.as_mut() {
                s.forget(cid);
            }
            // Drop the pod's high-water seq entries so the Agent's maps
            // stay bounded under churn. Only the hosting node's Agent
            // ever applies a command for this id (and the cluster never
            // reissues an id), so it is the only one holding any.
            if let Some(agent) = agent_for(&mut agents, node) {
                agent.forget_container(cid);
            }
            pods.swap_remove(pi);
        }

        // Per-second aggregate limits + slack sampling (and, in the
        // baseline-scaler mode, the observe → recommend → apply loop).
        while next_second <= t_next {
            let mut agg_cpu = 0.0;
            let mut agg_mem = 0.0;
            for pod in pods.iter_mut() {
                let c = cluster.container(pod.cid).expect("pod");
                agg_cpu += c.cpu.quota_cores();
                agg_mem += c.mem.limit_bytes() as f64 / MIB as f64;
                metrics.slack.record(
                    (c.cpu.quota_cores()).max(0.0),
                    c.mem.limit_bytes().saturating_sub(c.mem.usage_bytes()) as f64 / MIB as f64,
                );
                if let Some(s) = scaler.as_mut() {
                    s.observe(
                        pod.cid,
                        UsageSample {
                            cpu_cores: pod.sec_usage_us / 1e6,
                            mem_bytes: c.mem.usage_bytes(),
                        },
                    );
                    pod.sec_usage_us = 0.0;
                }
            }
            metrics.record_limits(next_second, agg_cpu, agg_mem);
            if let Some(s) = scaler.as_mut() {
                // Cadence keyed to absolute seconds, so idle
                // fast-forward (which skips this loop) cannot drift the
                // recommendation phase.
                let sec = next_second.duration_since(SimTime::ZERO).as_micros() / 1_000_000;
                if sec.is_multiple_of(scaler_update_secs) {
                    let updates = s.recommend();
                    apply_limit_updates(&mut cluster, &updates, false, next_second);
                }
            }
            next_second += SimDuration::from_secs(1);
        }

        if job.as_ref().is_some_and(|j| j.is_done()) {
            t_final = t;
            break;
        }
        t_final = t_next;

        // Schedule the next window — fast-forwarding across fully idle
        // gaps. A skipped window's only observable residue is the
        // controller tick (its reclamation sweep keeps internal timing
        // state even with no containers) and the per-second zero-limit
        // samples; both are replayed so a fast-forwarded run stays
        // bit-identical to one that executes every empty window.
        let mut next_round = t_next + period;
        if cfg.fast_forward_idle && pods.is_empty() && pending.is_empty() {
            let horizon = schedule.front().copied().unwrap_or(end);
            while next_round <= horizon && next_round - period < end {
                if let Some(ctl) = controller.as_mut() {
                    ctl.tick_into(next_round, &mut actions);
                    drive_actions(&mut cluster, &mut agents, ctl, &mut actions, next_round);
                }
                while next_second <= next_round {
                    metrics.record_limits(next_second, 0.0, 0.0);
                    next_second += SimDuration::from_secs(1);
                }
                rounds_fast_forwarded += 1;
                t_final = next_round;
                next_round += period;
            }
        }
        if next_round - period < end {
            q.push(next_round, SlsEv::Round);
        }
    }

    metrics.duration = t_final.duration_since(SimTime::ZERO);
    metrics.oom_kills = cluster.total_oom_kills();
    ServerlessOutput {
        metrics,
        job_latency,
        peak_pods,
        network: controller.map(|_| accountant),
        rounds_executed,
        rounds_fast_forwarded,
    }
}

#[allow(clippy::too_many_arguments)]
fn spawn_pod(
    cluster: &mut Cluster,
    pods: &mut Vec<Pod>,
    cfg: &ServerlessConfig,
    app_id: AppId,
    controller: &mut Option<Controller>,
    scaler: &mut Option<Box<dyn PeriodicScaler>>,
    agents: &mut [Agent],
    accountant: &mut BandwidthAccountant,
    now: SimTime,
) {
    let spec = ContainerSpec::new(format!("action-{}", pods.len()), app_id)
        .with_cpu_limit(cfg.openwhisk.pod_cpu_cores)
        .with_mem_limit(cfg.openwhisk.pod_mem_mib * MIB)
        .with_base_mem(16 * MIB)
        .with_restart_delay(cfg.openwhisk.cold_start);
    let cid = cluster.deploy(spec, now).expect("pool has nodes");
    if let Some(ctl) = controller.as_mut() {
        let node = cluster.container(cid).expect("pod").node();
        if let Ok(mut actions) = ctl.register_container(
            cid,
            app_id,
            node,
            cfg.openwhisk.pod_cpu_cores,
            cfg.openwhisk.pod_mem_mib * MIB,
        ) {
            accountant.record(now, escra_core::telemetry::REGISTER_WIRE_BYTES);
            drive_actions(cluster, agents, ctl, &mut actions, now);
        }
    }
    if let Some(s) = scaler.as_mut() {
        s.track(
            cid,
            cfg.openwhisk.pod_cpu_cores,
            cfg.openwhisk.pod_mem_mib * MIB,
        );
    }
    pods.push(Pod {
        cid,
        state: PodState::Starting,
        sec_usage_us: 0.0,
    });
}

/// Applies controller actions, feeding reclamation reports back; returns
/// whether any container was killed. `actions` is the caller's reusable
/// buffer and comes back empty. Shared with the trace-driven
/// mega-scenario driver ([`crate::trace_sim`]).
pub(crate) fn drive_actions(
    cluster: &mut Cluster,
    agents: &mut [Agent],
    controller: &mut Controller,
    actions: &mut Vec<Action>,
    now: SimTime,
) -> bool {
    let mut killed = false;
    let mut depth = 0;
    while !actions.is_empty() && depth < 4 {
        depth += 1;
        let mut entries = Vec::new();
        for action in actions.drain(..) {
            match action {
                Action::KillContainer(cid) => {
                    let _ = cluster.oom_kill(cid, now);
                    killed = true;
                }
                Action::Agent { node, cmd } => {
                    if let Some(agent) = agent_for(agents, node) {
                        if let AgentReport::Reclaimed(mut e) = agent.apply(cluster, cmd) {
                            entries.append(&mut e);
                        }
                    }
                }
            }
        }
        if !entries.is_empty() {
            actions.extend(controller.on_reclaim_report(now, &entries));
        }
    }
    actions.clear();
    killed
}

#[cfg(test)]
mod tests {
    use super::*;
    use escra_workloads::serverless::image_process;

    fn short_image_process(escra: bool) -> ServerlessOutput {
        let cfg = ServerlessConfig {
            app: ServerlessApp::ImageProcess { iterations: 1 },
            ..ServerlessConfig::image_process(escra.then(EscraConfig::default), 7)
        };
        run_serverless(&cfg, &image_process())
    }

    #[test]
    fn image_process_completes_most_requests() {
        let out = short_image_process(false);
        // One iteration = 750 requests.
        assert!(
            out.metrics.latency.successes() > 700,
            "successes {}",
            out.metrics.latency.successes()
        );
        assert!(out.peak_pods >= 2);
        // Latencies should sit in the couple-of-seconds range.
        let mean = out.metrics.latency.mean_ms();
        assert!(mean > 1_000.0 && mean < 6_000.0, "mean {mean}");
    }

    #[test]
    fn escra_reduces_aggregate_limits() {
        let vanilla = short_image_process(false);
        let escra = short_image_process(true);
        let v_cpu = vanilla.metrics.cpu_limit_series.mean();
        let e_cpu = escra.metrics.cpu_limit_series.mean();
        assert!(
            e_cpu < v_cpu,
            "escra mean cpu limit {e_cpu} should undercut vanilla {v_cpu}"
        );
        let v_mem = vanilla.metrics.mem_limit_series.mean();
        let e_mem = escra.metrics.mem_limit_series.mean();
        assert!(e_mem < v_mem, "escra mem {e_mem} vs vanilla {v_mem}");
        // ...while keeping latency comparable (within 25%).
        let v_lat = vanilla.metrics.latency.mean_ms();
        let e_lat = escra.metrics.latency.mean_ms();
        assert!(
            e_lat < v_lat * 1.25,
            "escra latency {e_lat} vs vanilla {v_lat}"
        );
    }

    #[test]
    fn baseline_scalers_run_and_trim_reservations() {
        use escra_baselines::{ArcVConfig, TinyAutoscalerConfig};
        let vanilla = short_image_process(false);
        for kind in [
            BaselineScalerKind::Tiny(TinyAutoscalerConfig::default()),
            BaselineScalerKind::ArcV(ArcVConfig::default()),
        ] {
            let cfg = ServerlessConfig {
                app: ServerlessApp::ImageProcess { iterations: 1 },
                baseline: Some(kind),
                ..ServerlessConfig::image_process(None, 7)
            };
            let out = run_serverless(&cfg, &image_process());
            assert_eq!(
                out.metrics.policy,
                format!("{}-openwhisk", kind.name()),
                "policy label"
            );
            assert!(
                out.metrics.latency.successes() > 600,
                "{}: successes {}",
                kind.name(),
                out.metrics.latency.successes()
            );
            // Both scalers right-size memory below the static 256 MiB
            // pods (actions use ~1.2 cores, so CPU limits legitimately
            // sit near or above the static 1 vCPU — the win is memory).
            let base = vanilla.metrics.mem_limit_series.mean();
            let ours = out.metrics.mem_limit_series.mean();
            assert!(
                ours < base,
                "{}: mean mem limit {ours} MiB should undercut vanilla {base} MiB",
                kind.name()
            );
            let cpu = out.metrics.cpu_limit_series.mean();
            let cpu_base = vanilla.metrics.cpu_limit_series.mean();
            assert!(
                cpu > 0.0 && cpu < cpu_base * 2.0,
                "{}: mean cpu limit {cpu} out of band (vanilla {cpu_base})",
                kind.name()
            );
        }
    }

    #[test]
    fn grid_search_finishes_all_tasks() {
        let cfg = ServerlessConfig::grid_search(None, 3);
        let out = run_serverless(&cfg, &escra_workloads::serverless::grid_search_task());
        let latency = out.job_latency.expect("job finishes");
        // Paper reports ~300s; accept a generous band for the model.
        let secs = latency.as_secs_f64();
        assert!(secs > 150.0 && secs < 700.0, "job latency {secs}s");
        assert!(out.peak_pods >= GRID_SEARCH_WORKERS);
    }

    /// Everything observable about a run except the driver counters.
    fn digest(out: &ServerlessOutput) -> String {
        format!(
            "{:?}|{:?}|{:?}|{:?}",
            out.metrics, out.job_latency, out.peak_pods, out.network
        )
    }

    #[test]
    fn warm_pods_block_fast_forward_and_output_stays_identical() {
        // Fast-forward may only engage when the invoker is *fully* idle:
        // a warm pod's idle-timeout is a pending event the skip must not
        // jump over. With the timeout stretched past the inter-iteration
        // gap, pods stay warm across the gap, so a run with the flag on
        // must skip nothing — and match the flag-off run bit for bit.
        let mut slow = ServerlessConfig {
            app: ServerlessApp::ImageProcess { iterations: 2 },
            ..ServerlessConfig::image_process(None, 7)
        };
        slow.openwhisk.idle_timeout = SimDuration::from_secs(400); // > 120 s gap
        slow.fast_forward_idle = false;
        let mut fast = slow.clone();
        fast.fast_forward_idle = true;
        let a = run_serverless(&slow, &image_process());
        let b = run_serverless(&fast, &image_process());
        assert_eq!(digest(&a), digest(&b));
        assert_eq!(
            b.rounds_fast_forwarded, 0,
            "warm pods must pin every window"
        );
        assert_eq!(a.rounds_executed, b.rounds_executed);
    }

    #[test]
    fn fast_forward_is_bit_identical_and_skips_idle_windows() {
        for escra in [false, true] {
            let mut slow = ServerlessConfig {
                app: ServerlessApp::ImageProcess { iterations: 1 },
                ..ServerlessConfig::image_process(escra.then(EscraConfig::default), 7)
            };
            slow.fast_forward_idle = false;
            let mut fast = slow.clone();
            fast.fast_forward_idle = true;
            let a = run_serverless(&slow, &image_process());
            let b = run_serverless(&fast, &image_process());
            assert_eq!(
                digest(&a),
                digest(&b),
                "fast-forward divergence (escra={escra})"
            );
            assert_eq!(a.rounds_fast_forwarded, 0);
            assert!(
                b.rounds_fast_forwarded > 0,
                "the post-iteration idle tail should fast-forward"
            );
            assert_eq!(
                a.rounds_executed,
                b.rounds_executed + b.rounds_fast_forwarded
            );
        }
    }
}
