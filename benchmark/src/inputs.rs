//! Input generation: `--seed` → everything a workload feeds the
//! repository's code. The same seed gives byte-identical inputs (a unit
//! test holds every generator to that); the code under test receives
//! only these inputs, never a workload's name.
//!
//! # How the sizes were chosen
//!
//! The reference box has two cores, and every workload runs on one
//! thread. Each size below was raised until one repetition of the
//! driver takes a little over 2 s there — long enough that scheduler
//! noise averages out, short enough that seven repetitions, a warm-up
//! and the plant fit in a ~20 s run.

use crate::plant::{PlantInputs, PlantShape};
use escra_cfs::MIB;
use escra_core::telemetry::CpuStatsColumns;
use escra_core::EscraConfig;
use escra_harness::serverless_sim::{ServerlessApp, ServerlessConfig};
use escra_harness::{scenario_seed, MicroSimConfig, Policy, ReportPlan, TraceSimConfig};
use escra_metrics::fingerprint::StateHash;
use escra_net::FaultPlan;
use escra_simcore::rng::SimRng;
use escra_simcore::time::SimDuration;
use escra_workloads::{
    grid_search_task, hipster_shop, image_process, media_microservice, mega_mix, synthetic_trace,
    teastore, train_ticket, ActionProfile, AppClass, ArrivalShape, MicroserviceApp, RequestClass,
    ServiceTier, SyntheticTraceConfig, TraceWorkload, WorkloadKind,
};
use std::fmt::Write as _;

/// [`StateHash`] (the repository's FNV-1a accumulator) behind
/// `fmt::Write`, so `Debug` output can be hashed without materialising it.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashWriter(pub StateHash);

impl HashWriter {
    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

impl std::fmt::Write for HashWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write_bytes(s.as_bytes());
        Ok(())
    }
}

/// Hash of a value's `Debug` rendering.
pub fn debug_hash(value: &impl std::fmt::Debug) -> u64 {
    let mut h = HashWriter::default();
    let _ = write!(h, "{value:?}");
    h.finish()
}

// ---------------------------------------------------------------- trace

/// `trace_dense`: sub-clusters run back to back per repetition.
pub const DENSE_SUBS: usize = 7;
/// `trace_dense`: apps per sub-cluster.
pub const DENSE_APPS: usize = 260;
/// `trace_dense`: trace minutes carrying arrivals (one drain minute follows).
pub const DENSE_MINUTES: usize = 2;
/// `trace_dense`: nodes per sub-cluster.
pub const DENSE_NODES: usize = 6;
/// `trace_sparse`: sub-clusters per repetition.
pub const SPARSE_SUBS: usize = 12;
/// `trace_sparse`: apps per sub-cluster.
pub const SPARSE_APPS: usize = 20;
/// `trace_sparse`: trace minutes carrying arrivals.
pub const SPARSE_MINUTES: usize = 240;
/// `trace_sparse`: nodes per sub-cluster.
pub const SPARSE_NODES: usize = 4;
/// `trace_sparse`: mean invocations per minute of one sub-cluster. Every
/// generated population is scaled to exactly this load, so the seed
/// decides which apps fire when, not how busy the run is (the driver's
/// cost per round grows with the pods it has ever started).
pub const SPARSE_SUB_RPM: f64 = 0.8;
/// Per-app rate envelope of `trace_dense`, in invocations per minute:
/// low enough that no app saturates the driver's 8-pod scale-out cap, so
/// every invocation issued completes inside the trace.
pub const DENSE_RPM_CAP: f64 = 60.0;
/// Offered work of `trace_dense`, in execution-milliseconds per minute
/// per app (rate × median duration, averaged over the population). Every
/// generated population is scaled to exactly this load, so the seed
/// decides which apps are heavy, not how busy the run is.
pub const DENSE_WORK_MS_PER_MIN: f64 = 4_300.0;

/// Inputs of the two trace workloads.
#[derive(Debug, Clone)]
pub struct TraceInputs {
    /// One traced population per sub-cluster.
    pub subs: Vec<TraceWorkload>,
    /// The driver configuration of each sub-cluster.
    pub cfgs: Vec<TraceSimConfig>,
    /// The plant with this workload's shape.
    pub plant: PlantInputs,
}

/// Splits a population round-robin, so every sub-cluster sees the same
/// class mix, and appends nothing: the last trace minute is silenced
/// instead, so in-flight invocations drain before the trace ends.
fn partition_with_drain(mut population: TraceWorkload, subs: usize) -> Vec<TraceWorkload> {
    for app in &mut population.apps {
        if let Some(last) = app.rpm.last_mut() {
            *last = 0.0;
        }
    }
    let mut out = vec![
        TraceWorkload {
            apps: Vec::new(),
            minutes: population.minutes,
        };
        subs
    ];
    for (i, app) in population.apps.into_iter().enumerate() {
        out[i % subs].apps.push(app);
    }
    out
}

/// Multiplies every per-minute rate by `factor`, keeping it under `cap`.
fn scale_rates(population: &mut TraceWorkload, factor: f64, cap: f64) {
    for app in &mut population.apps {
        for r in &mut app.rpm {
            *r = (*r * factor).min(cap);
        }
    }
}

fn trace_cfgs(seed: u64, subs: usize, nodes: usize) -> Vec<TraceSimConfig> {
    (0..subs)
        .map(|i| {
            let mut cfg = TraceSimConfig::paper_like(
                Some(EscraConfig::default()),
                scenario_seed(seed, i),
                nodes,
            );
            // `trace_mega`'s telemetry shape: several windows per
            // datagram, desynchronised across nodes.
            cfg.report_plan = ReportPlan {
                period_multipliers: vec![1, 2, 5],
                jitter_frac: 0.5,
            };
            cfg.columnar = true;
            cfg
        })
        .collect()
}

impl TraceInputs {
    /// The dense regime: the `mega_mix` population, ~150 live pods per
    /// node, every round busy.
    pub fn dense(seed: u64) -> Self {
        let mut recipe = mega_mix(DENSE_APPS * DENSE_SUBS, DENSE_MINUTES + 1, seed);
        recipe.rpm_clamp = (0.0, DENSE_RPM_CAP);
        let mut population = synthetic_trace(&recipe);
        let work: f64 = population
            .apps
            .iter()
            .map(|a| a.mean_rpm() * a.exec_ms_median())
            .sum();
        let factor = DENSE_WORK_MS_PER_MIN * population.apps.len() as f64 / work;
        scale_rates(&mut population, factor, DENSE_RPM_CAP);
        let subs = partition_with_drain(population, DENSE_SUBS);
        TraceInputs {
            subs,
            cfgs: trace_cfgs(seed, DENSE_SUBS, DENSE_NODES),
            plant: PlantInputs::generate(
                PlantShape {
                    nodes: DENSE_NODES,
                    node_cores: 48,
                    containers: DENSE_NODES * 110,
                    apps: DENSE_APPS,
                    columnar: true,
                    report_multipliers: vec![1, 2, 5],
                    faults: FaultPlan::none(),
                    churn_every: 10,
                    // 6 nodes reporting every 1/2/5 periods: 3.4
                    // datagrams per period plus memory-side messages,
                    // ~20 k decisions. The other plants take 50 k and
                    // more; here one decision is a 110-550-entry
                    // datagram and a period costs 660 container-periods,
                    // so 100 k would cost twice the driver itself.
                    periods: 4_000,
                    decisions_per_sample: 1,
                },
                seed,
            ),
        }
    }

    /// The sparse regime: twenty apps per sub-cluster that fire once
    /// every ten minutes to two hours, so pods cold-start and tear down
    /// constantly and close to half of all rounds fast-forward.
    pub fn sparse(seed: u64) -> Self {
        let recipe = SyntheticTraceConfig {
            classes: vec![AppClass {
                name: "rare".into(),
                apps: SPARSE_APPS * SPARSE_SUBS,
                rpm_range: (0.01, 0.1),
                arrival: ArrivalShape::Steady,
                exec_ms_median_range: (100.0, 2_000.0),
                exec_cv: 1.0,
                mem_mib_range: (32, 256),
            }],
            minutes: SPARSE_MINUTES + 1,
            seed,
            rpm_clamp: (0.0, 600.0),
        };
        let mut population = synthetic_trace(&recipe);
        let total: f64 = population.apps.iter().map(|a| a.mean_rpm()).sum();
        scale_rates(
            &mut population,
            SPARSE_SUB_RPM * SPARSE_SUBS as f64 / total,
            f64::INFINITY,
        );
        let subs = partition_with_drain(population, SPARSE_SUBS);
        TraceInputs {
            subs,
            cfgs: trace_cfgs(seed, SPARSE_SUBS, SPARSE_NODES),
            plant: PlantInputs::generate(
                PlantShape {
                    nodes: SPARSE_NODES,
                    node_cores: 48,
                    containers: 8,
                    apps: 8,
                    columnar: true,
                    report_multipliers: vec![1, 2, 5],
                    faults: FaultPlan::none(),
                    churn_every: 12,
                    periods: 48_000,
                    // Two-entry datagrams: all that fall due in a period.
                    decisions_per_sample: 4,
                },
                seed,
            ),
        }
    }

    /// Mean invocations the traces are expected to issue.
    pub fn expected_invocations(&self) -> f64 {
        self.subs.iter().map(|w| w.expected_invocations()).sum()
    }

    /// Hash of everything generated.
    pub fn fingerprint(&self) -> u64 {
        debug_hash(self)
    }
}

// ---------------------------------------------------------------- micro

/// `micro_scale`: worker nodes (`sim_scale`'s target).
pub const SCALE_NODES: usize = 10_000;
/// `micro_scale`: replicas per tier of the two-tier app.
pub const SCALE_REPLICAS: usize = 6_000;
/// `micro_scale`: measured simulated seconds (the driver adds a 10 s
/// warm-up), so ~300 rounds per repetition.
pub const SCALE_SECS: u64 = 20;

/// Inputs of `micro_scale`.
#[derive(Debug, Clone)]
pub struct MicroInputs {
    /// The driver configuration.
    pub cfg: MicroSimConfig,
    /// The plant with this workload's shape.
    pub plant: PlantInputs,
}

/// `sim_scale`'s synthetic two-tier application: Teastore-class tiers,
/// background chains thinned to one event per 10 s per container.
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
    let containers = 2 * SCALE_REPLICAS;
    MicroserviceApp {
        name: "scale-synthetic".into(),
        tiers: vec![tier("edge", 4.0), tier("backend", 8.0)],
        classes: vec![RequestClass {
            name: "get".into(),
            weight: 1.0,
            path: vec![0, 1],
        }],
        global_cpu_cores: containers as f64 * 2.0,
        global_mem_mib: containers as u64 * 256,
    }
}

impl MicroInputs {
    /// The 10 000-node / 12 000-container Escra run.
    pub fn generate(seed: u64) -> Self {
        let mut cfg = MicroSimConfig::new(
            scale_app(),
            WorkloadKind::Fixed { rps: 400.0 },
            Policy::escra_default(),
            seed,
        )
        .with_duration(SimDuration::from_secs(SCALE_SECS));
        cfg.worker_nodes = SCALE_NODES;
        cfg.node_cores = 4;
        MicroInputs {
            cfg,
            plant: PlantInputs::generate(
                PlantShape {
                    nodes: SCALE_NODES,
                    node_cores: 4,
                    containers: 2 * SCALE_REPLICAS,
                    apps: 1,
                    columnar: false,
                    report_multipliers: vec![1],
                    faults: FaultPlan::none(),
                    churn_every: 0,
                    // 10 000 one- or two-entry datagrams per period,
                    // sixteen to a sample: ~62 k samples.
                    periods: 100,
                    decisions_per_sample: 16,
                },
                seed,
            ),
        }
    }

    /// Hash of everything generated.
    pub fn fingerprint(&self) -> u64 {
        debug_hash(self)
    }
}

// --------------------------------------------------------------- matrix

/// `paper_matrix`: measured simulated seconds of each Escra cell. Long,
/// because the Escra cells are where the control plane works and they
/// are ~10× cheaper per simulated second than a baseline cell with its
/// profiling pre-run.
pub const MATRIX_ESCRA_SECS: u64 = 200;
/// `paper_matrix`: measured simulated seconds of each baseline cell.
pub const MATRIX_BASELINE_SECS: u64 = 30;

/// One cell of the evaluation matrix.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// `app/workload/policy`.
    pub label: String,
    /// Whether the policy is Escra (the system under test) or a baseline.
    pub escra: bool,
    /// The driver configuration.
    pub cfg: MicroSimConfig,
}

/// One serverless run of the evaluation.
#[derive(Debug, Clone)]
pub struct ServerlessRun {
    /// `app/mode`.
    pub label: String,
    /// The driver configuration.
    pub cfg: ServerlessConfig,
    /// The action's execution profile.
    pub profile: ActionProfile,
}

/// Inputs of `paper_matrix`.
#[derive(Debug, Clone)]
pub struct MatrixInputs {
    /// Microservice cells, Escra cell first within each app × workload.
    pub cells: Vec<MatrixCell>,
    /// ImageProcess and GridSearch, vanilla and under Escra.
    pub serverless: Vec<ServerlessRun>,
    /// The plant with this workload's shape.
    pub plant: PlantInputs,
}

/// The control-plane fault plan of the Escra cells and the plant.
pub fn matrix_faults() -> FaultPlan {
    FaultPlan::none()
        .with_loss(0.05)
        .with_duplicates(0.02)
        .with_delay_spikes(0.02, SimDuration::from_millis(150))
}

impl MatrixInputs {
    /// The paper's evaluation as one repetition.
    pub fn generate(seed: u64) -> Self {
        let apps = [
            ("MediaMicroservice", media_microservice()),
            ("HipsterShop", hipster_shop()),
            ("TrainTicket", train_ticket()),
            ("Teastore", teastore()),
        ];
        let workloads = [
            ("fixed", WorkloadKind::paper_fixed()),
            ("exp", WorkloadKind::paper_exp()),
            ("burst", WorkloadKind::paper_burst()),
        ];
        let plan = ReportPlan {
            period_multipliers: vec![1, 2, 3],
            jitter_frac: 0.5,
        };
        let mut cells = Vec::new();
        for (app_name, app) in &apps {
            for (wl_name, wl) in &workloads {
                let cell_seed = scenario_seed(seed, cells.len());
                cells.push(MatrixCell {
                    label: format!("{app_name}/{wl_name}/escra"),
                    escra: true,
                    cfg: MicroSimConfig::new(
                        app.clone(),
                        wl.clone(),
                        Policy::escra_default(),
                        cell_seed,
                    )
                    .with_duration(SimDuration::from_secs(MATRIX_ESCRA_SECS))
                    .with_faults(matrix_faults())
                    .with_report_plan(plan.clone()),
                });
                for policy in [
                    Policy::static_1_5x(),
                    Policy::autopilot_default(),
                    Policy::Vpa(Default::default()),
                    Policy::tiny_default(),
                    Policy::arc_v_default(),
                ] {
                    cells.push(MatrixCell {
                        label: format!("{app_name}/{wl_name}/{}", policy.name()),
                        escra: false,
                        cfg: MicroSimConfig::new(app.clone(), wl.clone(), policy, cell_seed)
                            .with_duration(SimDuration::from_secs(MATRIX_BASELINE_SECS)),
                    });
                }
            }
        }
        let mut serverless = Vec::new();
        for (mode, escra) in [("vanilla", None), ("escra", Some(EscraConfig::default()))] {
            serverless.push(ServerlessRun {
                label: format!("ImageProcess/{mode}"),
                cfg: ServerlessConfig {
                    app: ServerlessApp::ImageProcess { iterations: 4 },
                    ..ServerlessConfig::image_process(escra.clone(), seed)
                },
                profile: image_process(),
            });
            serverless.push(ServerlessRun {
                label: format!("GridSearch/{mode}"),
                cfg: ServerlessConfig::grid_search(escra, seed),
                profile: grid_search_task(),
            });
        }
        MatrixInputs {
            cells,
            serverless,
            plant: PlantInputs::generate(
                PlantShape {
                    nodes: 3,
                    node_cores: 20,
                    containers: 32,
                    apps: 1,
                    columnar: false,
                    report_multipliers: vec![1, 2, 3],
                    faults: matrix_faults(),
                    churn_every: 0,
                    periods: 56_000,
                    // ~10-entry datagrams: all a poll delivers.
                    decisions_per_sample: 4,
                },
                seed,
            ),
        }
    }

    /// Hash of everything generated.
    pub fn fingerprint(&self) -> u64 {
        debug_hash(self)
    }
}

// ------------------------------------------------------------------ ctl

/// `ctl_mixed`: applications.
pub const CTL_APPS: usize = 2_000;
/// `ctl_mixed`: worker nodes.
pub const CTL_NODES: usize = 256;
/// `ctl_mixed`: periods in the pre-generated epoch.
pub const CTL_EPOCH_PERIODS: usize = 40;
/// `ctl_mixed`: epochs replayed per repetition (~60 M entries).
pub const CTL_EPOCHS_PER_REP: usize = 15;
/// `ctl_mixed`: OOM events per period. Each period 1/64 of the
/// containers grow their memory (a charge) and 1/64 of those charges
/// trap — ~24 events for ~100 k containers.
pub const CTL_OOMS_PER_PERIOD: usize = 24;
/// `ctl_mixed`: pods restarted (deregister + register) per period.
pub const CTL_CHURN_PER_PERIOD: usize = 8;
/// `ctl_mixed`: start memory limit of every container.
pub const CTL_MEM_LIMIT: u64 = 256 * MIB;
/// `ctl_mixed`: an application's CPU pool as a multiple of its members'
/// start quotas.
pub const CTL_POOL_HEADROOM: f64 = 8.0;
/// `ctl_mixed`: probability that a calm container starts a 2-5-period
/// demand burst in a period.
pub const CTL_BURST_ON: f64 = 0.04;

/// One container of the `ctl_mixed` population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtlContainer {
    /// Owning application.
    pub app: u32,
    /// Host node.
    pub node: u32,
    /// CPU quota it registers with, in millicores.
    pub quota_mcores: u32,
}

/// Inputs of `ctl_mixed`: the registry and one epoch of demand and
/// memory-side messages.
#[derive(Debug, Clone, PartialEq)]
pub struct CtlInputs {
    /// `(cpu_limit_cores, mem_limit_bytes)` per application.
    pub apps: Vec<(f64, u64)>,
    /// Containers; the index is the raw container id.
    pub containers: Vec<CtlContainer>,
    /// CPU time each container wants, in µs per period:
    /// `[period][container]`.
    pub demand_us: Vec<Vec<u32>>,
    /// OOM events per epoch period: `(container, shortfall_bytes)`.
    pub ooms: Vec<Vec<(u32, u64)>>,
    /// Containers restarted per epoch period.
    pub churn: Vec<Vec<u32>>,
}

impl CtlInputs {
    /// Generates the registry and the epoch. Demand per container is a
    /// level times a bursty AR(1) process (levels, burst rate and pool
    /// head-room tuned until the Controller answers about 0.3 actions
    /// per entry over a repetition). Only the demand is generated: what
    /// a datagram reports — usage, unused runtime, the throttle flag —
    /// depends on the quota the Controller last granted
    /// ([`CtlInputs::encode_period`]), so the loop is closed and the
    /// replay is still a pure function of the seed.
    pub fn generate(seed: u64) -> Self {
        Self::generate_sized(seed, CTL_APPS, CTL_EPOCH_PERIODS)
    }

    /// [`CtlInputs::generate`] at another size (tests use a small one).
    pub fn generate_sized(seed: u64, n_apps: usize, epoch_periods: usize) -> Self {
        let mut rng = SimRng::new(seed).fork(0x0063_746c); // "ctl"
        let mut containers = Vec::new();
        let mut apps = Vec::with_capacity(n_apps);
        let mut levels = Vec::new();
        for app in 0..n_apps {
            let members = 20 + rng.next_below(61) as usize;
            let mut quota_sum = 0.0;
            for _ in 0..members {
                let level = rng.uniform(0.2f64.ln(), 2.0f64.ln()).exp();
                let quota_mcores = ((level * 1.3 + 0.25) * 1000.0).round() as u32;
                quota_sum += quota_mcores as f64 / 1000.0;
                levels.push(level);
                containers.push(CtlContainer {
                    app: app as u32,
                    // A scheduler's placement, not a stride: datagrams
                    // differ in size (390 ± 20 entries) and a node's
                    // containers sit at irregular distances in the
                    // Controller's tables.
                    node: rng.next_below(CTL_NODES as u64) as u32,
                    quota_mcores,
                });
            }
            apps.push((
                quota_sum * CTL_POOL_HEADROOM,
                members as u64 * 3 * CTL_MEM_LIMIT,
            ));
        }
        let n = containers.len();
        let period_us = 100_000.0;
        let mut x = vec![0.0f64; n];
        let mut burst_left = vec![0u32; n];
        let mut demand_us = Vec::with_capacity(epoch_periods);
        for _ in 0..epoch_periods {
            let mut period = Vec::with_capacity(n);
            for i in 0..n {
                x[i] = 0.8 * x[i] + 0.2 * (rng.next_f64() * 2.0 - 1.0);
                if burst_left[i] > 0 {
                    burst_left[i] -= 1;
                } else if rng.chance(CTL_BURST_ON) {
                    burst_left[i] = 2 + rng.next_below(4) as u32;
                }
                let demand =
                    levels[i] * (1.0 + 0.5 * x[i]) * if burst_left[i] > 0 { 2.5 } else { 1.0 };
                period.push((demand * period_us).round() as u32);
            }
            demand_us.push(period);
        }
        let ooms = (0..epoch_periods)
            .map(|_| {
                (0..CTL_OOMS_PER_PERIOD)
                    .map(|_| {
                        (
                            rng.next_below(n as u64) as u32,
                            (1 + rng.next_below(16)) * MIB,
                        )
                    })
                    .collect()
            })
            .collect();
        let churn = (0..epoch_periods)
            .map(|_| {
                (0..CTL_CHURN_PER_PERIOD)
                    .map(|_| rng.next_below(n as u64) as u32)
                    .collect()
            })
            .collect();
        CtlInputs {
            apps,
            containers,
            demand_us,
            ooms,
            churn,
        }
    }

    /// Builds the datagrams of epoch period `p`, one per node into
    /// `blocks`, for containers running with `quota_mcores`: each uses
    /// what it wants up to its quota and is flagged throttled when it
    /// wants more. Returns the number of throttled entries.
    pub fn encode_period(
        &self,
        p: usize,
        quota_mcores: &[u32],
        blocks: &mut [CpuStatsColumns],
    ) -> u64 {
        for block in blocks.iter_mut() {
            block.clear();
        }
        let mut throttled = 0;
        for (i, c) in self.containers.iter().enumerate() {
            let quota = quota_mcores[i];
            // 1 millicore is 100 µs of a 100 ms period.
            let quota_us = quota * 100;
            let demand = self.demand_us[p][i];
            let usage = demand.min(quota_us);
            blocks[c.node as usize].push_raw(
                escra_cluster::ContainerId::new(i as u64),
                quota,
                quota_us - usage,
                usage,
                demand > quota_us,
            );
            throttled += (demand > quota_us) as u64;
        }
        throttled
    }

    /// Hash of everything generated (raw words, not `Debug` text: the
    /// epoch holds millions of values).
    pub fn fingerprint(&self) -> u64 {
        let mut h = HashWriter::default();
        let _ = write!(h, "{:?}{:?}{:?}", self.apps, self.ooms, self.churn);
        for c in &self.containers {
            let _ = write!(h, "{c:?}");
        }
        for period in &self.demand_us {
            for &v in period {
                h.0.write_u32(v);
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fixed-work guard: one seed, byte-identical inputs; another
    /// seed, different inputs.
    #[test]
    fn trace_generators_repeat_per_seed() {
        for gen in [TraceInputs::dense, TraceInputs::sparse] {
            let (a, b, c) = (gen(7), gen(7), gen(8));
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert_eq!(a.fingerprint(), b.fingerprint());
            assert_ne!(format!("{a:?}"), format!("{c:?}"));
            assert_ne!(a.fingerprint(), c.fingerprint());
        }
    }

    #[test]
    fn micro_and_matrix_generators_repeat_per_seed() {
        let (a, b, c) = (
            MicroInputs::generate(7),
            MicroInputs::generate(7),
            MicroInputs::generate(8),
        );
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
        let (a, b, c) = (
            MatrixInputs::generate(7),
            MatrixInputs::generate(7),
            MatrixInputs::generate(8),
        );
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn ctl_generator_repeats_per_seed() {
        let (a, b, c) = (
            CtlInputs::generate(7),
            CtlInputs::generate(7),
            CtlInputs::generate(8),
        );
        assert!(a == b, "same seed, different inputs");
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(a != c, "different seeds, same inputs");
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn trace_populations_have_the_intended_shape() {
        let dense = TraceInputs::dense(1);
        assert_eq!(dense.subs.len(), DENSE_SUBS);
        assert!(dense.subs.iter().all(|w| w.apps.len() == DENSE_APPS));
        for w in &dense.subs {
            for app in &w.apps {
                assert_eq!(app.rpm.len(), DENSE_MINUTES + 1);
                assert_eq!(*app.rpm.last().unwrap(), 0.0, "drain minute");
                assert!(app.rpm.iter().all(|r| *r <= DENSE_RPM_CAP));
            }
        }
        let sparse = TraceInputs::sparse(1);
        assert_eq!(sparse.subs.len(), SPARSE_SUBS);
        assert!(sparse.subs.iter().all(|w| w.apps.len() == SPARSE_APPS));
        // Distinct sub-clusters get distinct driver seeds.
        assert_ne!(dense.cfgs[0].seed, dense.cfgs[1].seed);
    }

    #[test]
    fn ctl_population_has_the_intended_shape() {
        let ctl = CtlInputs::generate(3);
        assert_eq!(ctl.apps.len(), CTL_APPS);
        let n = ctl.containers.len();
        assert!((90_000..110_000).contains(&n), "{n} containers");
        assert_eq!(ctl.demand_us.len(), CTL_EPOCH_PERIODS);
        assert!(ctl.demand_us.iter().all(|p| p.len() == n));
        // A period's datagrams: every container once, on its own node,
        // using what it wants up to its quota.
        let quotas: Vec<u32> = ctl.containers.iter().map(|c| c.quota_mcores).collect();
        let mut blocks = vec![CpuStatsColumns::new(); CTL_NODES];
        let throttled = ctl.encode_period(0, &quotas, &mut blocks);
        assert_eq!(blocks.iter().map(|b| b.len()).sum::<usize>(), n);
        let mut flagged = 0;
        for (node, block) in blocks.iter().enumerate() {
            for (i, &raw) in block.container_raw.iter().enumerate() {
                assert_eq!(ctl.containers[raw as usize].node as usize, node);
                assert_eq!(
                    block.usage_us[i] + block.unused_us[i],
                    quotas[raw as usize] * 100
                );
                assert!(block.usage_us[i] <= ctl.demand_us[0][raw as usize]);
            }
            flagged += block
                .throttled
                .iter()
                .map(|w| w.count_ones() as u64)
                .sum::<u64>();
        }
        assert_eq!(flagged, throttled);
    }

    #[test]
    fn debug_hash_is_fnv1a_over_the_debug_text() {
        let mut h = StateHash::new();
        h.write_bytes(b"\"a\"");
        assert_eq!(debug_hash(&"a"), h.finish());
        assert_ne!(debug_hash(&"a"), debug_hash(&"b"));
    }
}
