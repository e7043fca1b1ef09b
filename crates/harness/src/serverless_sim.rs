//! The serverless experiment simulator (paper §VI-F/G, Figs. 7–9).
//!
//! Models an OpenWhisk-style invoker: user-action pods are created on
//! demand (cold start), reused while warm, and torn down after an idle
//! timeout. Vanilla OpenWhisk gives every pod a static 1 vCPU / 256 MiB;
//! with Escra enabled the whole namespace is treated as one Distributed
//! Container and pods are right-sized continuously.
//!
//! All pod activity resolves inside fixed windows, so the run is one
//! chain of window closes. While the invoker is completely idle — no
//! pods, no pending activations — the driver fast-forwards across the
//! gap to the next arrival instead of executing empty windows (see
//! [`ServerlessConfig::fast_forward_idle`]), so the long inter-iteration
//! gaps of ImageProcess cost almost nothing. Everything done to a pod
//! that `trace_sim` does too lives in [`crate::pod_host`].

use crate::pod_host::PodHost;
use crate::policy::BaselineScalerKind;
use escra_cfs::{node::arbitrate_into, MIB};
use escra_cluster::{AppId, ContainerId, ContainerSpec, ContainerState, NodeSpec};
use escra_core::telemetry::{ToController, CPU_STATS_WIRE_BYTES};
use escra_core::EscraConfig;
use escra_metrics::RunMetrics;
use escra_net::BandwidthAccountant;
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
    /// `Some` runs a [`PeriodicScaler`](escra_baselines::PeriodicScaler)
    /// baseline (tiny autoscaler or ARC-V) over the pod population
    /// instead — mutually exclusive with `escra`.
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
    /// integral a baseline scaler observes.
    sec_usage_us: f64,
}

/// Maximum cores one action can exploit (slightly above 1 vCPU: some
/// phases of real actions are parallel, which is where Escra's modest
/// latency gains come from).
const ACTION_PARALLELISM: f64 = 1.2;

/// Runs one serverless experiment.
pub fn run_serverless(cfg: &ServerlessConfig, profile: &ActionProfile) -> ServerlessOutput {
    let mut invoker = Invoker::new(cfg, profile);
    let mut next_round = Some(SimTime::ZERO + invoker.host.period);
    while let Some(t_next) = next_round {
        next_round = invoker.round(t_next);
    }
    let metrics = invoker.host.finish(invoker.t_final);
    ServerlessOutput {
        metrics,
        job_latency: invoker.job_latency,
        peak_pods: invoker.peak_pods,
        network: cfg.escra.as_ref().map(|_| invoker.host.accountant),
        rounds_executed: invoker.rounds_executed,
        rounds_fast_forwarded: invoker.rounds_fast_forwarded,
    }
}

/// The OpenWhisk invoker: a pool of action pods on a [`PodHost`], fed
/// from an arrival schedule (ImageProcess) or a job's task queue
/// (GridSearch).
struct Invoker<'a> {
    cfg: &'a ServerlessConfig,
    profile: &'a ActionProfile,
    host: PodHost,
    rng: SimRng,
    pods: Vec<Pod>,
    /// Activation arrivals not yet due, in time order.
    schedule: VecDeque<SimTime>,
    /// Arrived activations waiting for a pod.
    pending: VecDeque<SimTime>,
    /// Where the rotating activation scan starts this window.
    assign_cursor: usize,
    job: Option<GridSearchJob>,
    job_latency: Option<SimDuration>,
    end: SimTime,
    peak_pods: usize,
    /// Per-node running Exec pods of the current window, in pod order.
    node_exec: Vec<Vec<usize>>,
    // Scratch reused by every window, so a steady-state round allocates
    // nothing: one node's demands, its grants and their sort order.
    want: Vec<f64>,
    grants: Vec<f64>,
    order: Vec<usize>,
    rounds_executed: u64,
    rounds_fast_forwarded: u64,
    /// Final simulated time: the last window boundary reached (or the
    /// window start when a finished job ends the run mid-grid).
    t_final: SimTime,
}

impl<'a> Invoker<'a> {
    fn new(cfg: &'a ServerlessConfig, profile: &'a ActionProfile) -> Self {
        let nodes = vec![
            NodeSpec {
                cores: cfg.node_cores,
                mem_bytes: 64 * 1024 * MIB,
            };
            cfg.worker_nodes
        ];
        let mut host = PodHost::new(
            nodes,
            cfg.escra.as_ref(),
            cfg.baseline.as_ref(),
            "openwhisk",
            "openwhisk",
        );
        if let Some(ctl) = host.controller.as_mut() {
            // The whole namespace is one Distributed Container.
            let pool_mem =
                (cfg.openwhisk.container_pool_mem_mib as f64 * cfg.resource_scale) as u64 * MIB;
            let pool_cpu = cfg.openwhisk.implied_global_cpu_cores() * cfg.resource_scale;
            ctl.register_app(AppId::new(0), pool_cpu, pool_mem);
        }
        let gap = SimDuration::from_secs(120); // idle gap between iterations
        let (schedule, end, job) = match cfg.app {
            ServerlessApp::ImageProcess { iterations } => {
                let stride = IMAGE_PROCESS_ITERATION + gap;
                let schedule = (0..iterations as u64)
                    .flat_map(|i| image_process_arrivals(SimTime::ZERO + stride * i))
                    .collect();
                (schedule, SimTime::ZERO + stride * iterations as u64, None)
            }
            ServerlessApp::GridSearch => (
                VecDeque::new(),
                SimTime::ZERO + SimDuration::from_secs(1_800),
                Some(GridSearchJob::paper()),
            ),
        };
        let mut invoker = Invoker {
            cfg,
            profile,
            node_exec: vec![Vec::new(); host.cluster.nodes().len()],
            want: Vec::new(),
            grants: Vec::new(),
            order: Vec::new(),
            host,
            rng: SimRng::new(cfg.seed).fork(0x736c73), // "sls"
            pods: Vec::new(),
            schedule,
            pending: VecDeque::new(),
            assign_cursor: 0,
            job,
            job_latency: None,
            end,
            peak_pods: 0,
            rounds_executed: 0,
            rounds_fast_forwarded: 0,
            t_final: SimTime::ZERO,
        };
        if invoker.job.is_some() {
            // GridSearch: the worker fleet spawns at t = 0.
            for _ in 0..GRID_SEARCH_WORKERS {
                invoker.spawn_pod(SimTime::ZERO);
            }
        }
        invoker
    }

    /// One full window `[t_next - period, t_next)`, resolved at its
    /// close. Returns the close of the next window to execute, if any.
    fn round(&mut self, t_next: SimTime) -> Option<SimTime> {
        let period = self.host.period;
        let t = t_next - period;
        self.rounds_executed += 1;
        self.host.cluster.tick(t);
        self.admit(t, t_next);
        self.execute(t);
        self.complete_io(t_next);
        self.charge_memory(t_next);
        self.report(t_next);
        self.reap_idle(t_next);
        self.host.sample_seconds(t_next, |see| {
            for pod in self.pods.iter_mut() {
                see(pod.cid, &mut pod.sec_usage_us);
            }
        });

        if self.job.as_ref().is_some_and(|j| j.is_done()) {
            self.t_final = t;
            return None;
        }
        self.t_final = t_next;

        // The next window — fast-forwarding across fully idle gaps,
        // replaying each skipped window's residue.
        let mut next_round = t_next + period;
        if self.cfg.fast_forward_idle && self.pods.is_empty() && self.pending.is_empty() {
            let horizon = self.schedule.front().copied().unwrap_or(self.end);
            while next_round <= horizon && next_round - period < self.end {
                self.host.idle_window(next_round);
                self.rounds_fast_forwarded += 1;
                self.t_final = next_round;
                next_round += period;
            }
        }
        (next_round - period < self.end).then_some(next_round)
    }

    /// Promotes started pods, takes in the window's arrivals, hands
    /// activations (or GridSearch tasks) to idle pods and scales out.
    fn admit(&mut self, t: SimTime, t_next: SimTime) {
        for pod in self.pods.iter_mut() {
            if matches!(pod.state, PodState::Starting)
                && self
                    .host
                    .cluster
                    .container(pod.cid)
                    .is_some_and(|c| c.is_running())
            {
                pod.state = PodState::Idle { since: t };
            }
        }
        let due = self.schedule.partition_point(|&at| at < t_next);
        self.pending.extend(self.schedule.drain(..due));

        // Assign pending activations to idle pods, rotating the start of
        // the scan: OpenWhisk spreads activations across its warm pool,
        // which is what keeps every warm pod's static reservation alive.
        let np = self.pods.len();
        if np > 0 {
            for k in 0..np {
                let pod = &mut self.pods[(self.assign_cursor + k) % np];
                if let (PodState::Idle { .. }, Some(&arrival)) = (pod.state, self.pending.front()) {
                    self.pending.pop_front();
                    pod.state = PodState::Exec {
                        arrival,
                        remaining_us: self.profile.sample_exec_us(&mut self.rng),
                    };
                }
            }
            self.assign_cursor = (self.assign_cursor + 1) % np;
        }
        let max_pods = (self.cfg.openwhisk.max_pods() as f64 * self.cfg.resource_scale) as usize;
        let to_spawn = self.pending.len().min(max_pods.saturating_sub(np));
        for _ in 0..to_spawn {
            self.spawn_pod(t);
        }
        // GridSearch: idle workers claim tasks.
        if let Some(job) = self.job.as_mut() {
            for pod in self.pods.iter_mut() {
                if matches!(pod.state, PodState::Idle { .. }) && job.try_claim().is_some() {
                    pod.state = PodState::Exec {
                        arrival: t,
                        remaining_us: self.profile.sample_exec_us(&mut self.rng),
                    };
                }
            }
        }
        self.peak_pods = self.peak_pods.max(self.pods.len());
    }

    /// CPU: arbitrates execution among busy pods, per node.
    fn execute(&mut self, t: SimTime) {
        let period = self.host.period;
        let period_us = period.as_micros() as f64;
        for (pi, pod) in self.pods.iter().enumerate() {
            if let PodState::Exec { .. } = pod.state {
                let c = self.host.cluster.container(pod.cid).expect("pod container");
                if c.is_running() {
                    self.node_exec[c.node().as_u64() as usize].push(pi);
                }
            }
        }
        let capacity = self.cfg.node_cores as f64 * period_us;
        for members in self.node_exec.iter_mut() {
            self.want.clear();
            self.want.extend(members.iter().map(|&pi| {
                let pod = &self.pods[pi];
                let PodState::Exec { remaining_us, .. } = pod.state else {
                    unreachable!("only Exec pods are gathered");
                };
                let c = self.host.cluster.container(pod.cid).expect("pod container");
                remaining_us
                    .min(ACTION_PARALLELISM * period_us)
                    .min(c.cpu.runtime_remaining_us())
            }));
            arbitrate_into(capacity, &self.want, &mut self.order, &mut self.grants);
            for (&granted, &pi) in self.grants.iter().zip(members.iter()) {
                let pod = &mut self.pods[pi];
                let PodState::Exec {
                    arrival,
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
                    // Completed mid-period; interpolate completion.
                    let frac = if granted > 0.0 {
                        (*remaining_us / granted).clamp(0.0, 1.0)
                    } else {
                        1.0
                    };
                    pod.state = PodState::Io {
                        arrival: *arrival,
                        until: t + period.mul_f64(frac) + self.profile.io_wait,
                    };
                } else {
                    if c.cpu.runtime_remaining_us() <= period_us * 0.01 {
                        c.cpu.mark_throttled();
                    }
                    *remaining_us = left;
                }
            }
            members.clear();
        }
    }

    /// Finishes activations whose IO wait ends inside the window.
    fn complete_io(&mut self, t_next: SimTime) {
        for pod in self.pods.iter_mut() {
            if let PodState::Io { arrival, until } = pod.state {
                if until <= t_next {
                    self.host
                        .metrics
                        .latency
                        .record_success(until.duration_since(arrival));
                    if let Some(job) = self.job.as_mut() {
                        job.complete();
                        if job.is_done() && self.job_latency.is_none() {
                            self.job_latency = Some(until.duration_since(SimTime::ZERO));
                        }
                    }
                    pod.state = PodState::Idle { since: until };
                }
            }
        }
    }

    /// Charges every pod toward its state's memory target. A killed pod
    /// cold-starts again, and its in-flight work is not lost: a
    /// GridSearch task goes back to the job's queue, an activation
    /// retries from scratch (fresh work draw on reassignment), queued
    /// ahead of newer arrivals.
    fn charge_memory(&mut self, now: SimTime) {
        for pod in self.pods.iter_mut() {
            let busy = matches!(pod.state, PodState::Exec { .. } | PodState::Io { .. });
            let target = if busy {
                self.profile.mem_mib * MIB
            } else {
                self.profile.idle_mem_mib * MIB
            };
            if self.host.charge_to(pod.cid, target, now) {
                if let PodState::Exec { arrival, .. } | PodState::Io { arrival, .. } = pod.state {
                    match self.job.as_mut() {
                        Some(job) => job.abandon(),
                        None => self.pending.push_front(arrival),
                    }
                }
                pod.state = PodState::Starting;
            }
        }
    }

    /// Closes every pod's CPU period; under Escra each running pod's
    /// stats go to the Controller as one message, then the Controller
    /// ticks.
    fn report(&mut self, now: SimTime) {
        for pod in self.pods.iter_mut() {
            let c = self
                .host
                .cluster
                .container_mut(pod.cid)
                .expect("pod container");
            let stats = c.cpu.end_period();
            pod.sec_usage_us += stats.usage_us;
            if !matches!(c.state(), ContainerState::Running) {
                continue;
            }
            if let Some(ctl) = self.host.controller.as_mut() {
                self.host.accountant.record(now, CPU_STATS_WIRE_BYTES);
                let msg = ToController::CpuStats {
                    container: pod.cid,
                    stats,
                };
                ctl.handle_into(now, msg, &mut self.host.actions);
                self.host.drive_actions(now);
            }
        }
        self.host.tick(now);
    }

    /// Tears down pods idle for the configured timeout.
    fn reap_idle(&mut self, now: SimTime) {
        let idle_timeout = self.cfg.openwhisk.idle_timeout;
        for pi in (0..self.pods.len()).rev() {
            if matches!(self.pods[pi].state, PodState::Idle { since }
                if now.duration_since(since) >= idle_timeout)
            {
                self.host.retire_pod(self.pods[pi].cid, now);
                self.pods.swap_remove(pi);
            }
        }
    }

    fn spawn_pod(&mut self, now: SimTime) {
        let ow = &self.cfg.openwhisk;
        let spec = ContainerSpec::new(format!("action-{}", self.pods.len()), AppId::new(0))
            .with_cpu_limit(ow.pod_cpu_cores)
            .with_mem_limit(ow.pod_mem_mib * MIB)
            .with_base_mem(16 * MIB)
            .with_restart_delay(ow.cold_start);
        self.pods.push(Pod {
            cid: self.host.deploy_pod(spec, now),
            state: PodState::Starting,
            sec_usage_us: 0.0,
        });
    }
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
