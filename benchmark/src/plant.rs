//! The plant: a bench-side loop that drives one report period of the
//! Escra circuit through public functions only.
//!
//! `CpuBandwidth::consume/end_period` → `MemCgroup::try_charge` →
//! telemetry encode → (`Network::send/poll` + `FaultInjector::decide`
//! when the shape has a fault plan) → `Controller::handle_into` /
//! `ingest_cpu_columns_at` → `Agent::apply` on the `Cluster` → periodic
//! `reclaim_sweep` / `on_reclaim_report`.
//!
//! Each simulation workload owns a plant with that workload's shape
//! (nodes, containers per node, telemetry form, report cadence, fault
//! plan, churn). The drivers keep their Controller private, so the plant
//! is where one *decision* — one Controller call for one node datagram,
//! OOM event, ack or reclaim report — can be timed from outside.
//! Nothing in it reads the wall clock except those decision timers: the
//! work is a pure function of [`PlantInputs`].
//!
//! # One sample is a group of decisions
//!
//! Reading the clock twice costs 60-85 ns on the reference box, and a
//! 1-2-entry datagram is decided in 20-50 ns: timed one by one, such
//! decisions would mostly measure the clock. So the plant hands the
//! Controller up to [`PlantShape::decisions_per_sample`] decisions of one
//! kind (node datagrams, OOM events, acks) back to back inside one pair
//! of clock reads, carries out the actions afterwards, and records the
//! group's time divided by its size. The group size is a property of the
//! shape: 1 where a datagram holds hundreds of entries, more where it
//! holds one or two.

use escra_cfs::{ChargeOutcome, MIB};
use escra_cluster::{AppId, Cluster, ContainerId, ContainerSpec, NodeId, NodeSpec};
use escra_core::telemetry::{
    CpuStatsColumns, CpuStatsEntry, ToAgent, ToController, CPU_STATS_ENTRY_BYTES,
    CPU_STATS_HEADER_BYTES, OOM_EVENT_WIRE_BYTES, REGISTER_WIRE_BYTES,
};
use escra_core::{Action, Agent, AgentReport, Controller, EscraConfig};
use escra_net::{Addr, FaultDecision, FaultInjector, FaultPlan, LatencyModel, Network};
use escra_simcore::rng::SimRng;
use escra_simcore::time::{SimDuration, SimTime};
use std::time::Instant;

/// The report period every plant runs at (the paper's 100 ms).
pub const PERIOD_US: u64 = 100_000;

/// Probability that a calm container starts a demand burst in a period.
const BURST_ON: f64 = 0.01;
/// Demand multiplier while bursting.
const BURST_FACTOR: f64 = 3.0;
/// One burst in this many also spikes memory past the limit's headroom
/// (and traps); kept rare so node datagrams stay the median decision.
const MEM_SPIKE_EVERY: u64 = 8;
/// AR(1) memory of the calm demand process.
const AR_PHI: f64 = 0.8;

/// The shape of one plant: everything that distinguishes the workloads'
/// circuits from each other.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantShape {
    /// Worker nodes (one Agent each).
    pub nodes: usize,
    /// Cores per node.
    pub node_cores: u32,
    /// Containers deployed at start, placed round-robin.
    pub containers: usize,
    /// Applications (Distributed Containers) the containers are dealt to.
    pub apps: usize,
    /// Columnar telemetry through `ingest_cpu_columns_at` (true) or row
    /// batches through `handle_into` (false).
    pub columnar: bool,
    /// Node `n` reports every `report_multipliers[n % len]` periods.
    pub report_multipliers: Vec<u32>,
    /// Faults on both directions of the control plane. A plan other than
    /// [`FaultPlan::none`] routes telemetry through a [`Network`].
    pub faults: FaultPlan,
    /// Periods between one pod teardown + cold start (0 = no churn).
    pub churn_every: u64,
    /// Report periods per repetition.
    pub periods: u64,
    /// Decisions of one kind timed together as one sample (see the
    /// module documentation).
    pub decisions_per_sample: usize,
}

/// Per-container demand parameters (the generated input).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandParams {
    /// Calm CPU demand level, in cores.
    pub level_cores: f64,
    /// Resident memory, in bytes.
    pub mem_base: u64,
    /// Extra memory at full burst, in bytes.
    pub mem_span: u64,
}

/// Everything a plant is a function of.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantInputs {
    /// The circuit's shape.
    pub shape: PlantShape,
    /// One entry per deployed container; churned-in pods cycle through
    /// the same list.
    pub demands: Vec<DemandParams>,
    /// Seed of the in-circuit demand noise and the fault injectors.
    pub seed: u64,
}

impl PlantInputs {
    /// Generates the demand population for `shape` from `seed`.
    ///
    /// The calm CPU levels are the same for every seed: `containers`
    /// values spread evenly over the log-uniform range, in a fixed
    /// scrambled order (so every node hosts the whole range). The seed
    /// draws the memory sizes here and, in the circuit, the demand
    /// noise, the bursts and the faults. A plant of 8 or 32 containers
    /// that drew its levels at random would be a busier or a calmer
    /// circuit from one seed to the next for no reason but the draw.
    pub fn generate(shape: PlantShape, seed: u64) -> Self {
        let mut rng = SimRng::new(seed).fork(0x706c_616e); // "plan"
        let n = shape.containers.max(1);
        let (lo, hi) = (0.05f64.ln(), 0.8f64.ln());
        // Multiples of the golden ratio visit [0, 1) evenly in any prefix.
        let levels = (0..n).map(|i| {
            let u = (i as f64 * 0.618_033_988_749_894_9).fract();
            (lo + (hi - lo) * u).exp()
        });
        let demands = levels
            .map(|level_cores| DemandParams {
                level_cores,
                mem_base: (32 + rng.next_below(65)) * MIB,
                mem_span: (64 + rng.next_below(129)) * MIB,
            })
            .collect();
        PlantInputs {
            shape,
            demands,
            seed,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct DemandState {
    params: DemandParams,
    /// AR(1) state in [-1, 1].
    x: f64,
    /// Periods left in the current burst.
    burst_left: u32,
    /// The current burst also spikes memory.
    mem_spike: bool,
}

/// What the circuit did, counted where it happened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlantCounts {
    /// Live container report-periods.
    pub container_periods: u64,
    /// Periods that ended throttled.
    pub throttled_periods: u64,
    /// Memory charges attempted.
    pub charges: u64,
    /// Charges the `try_charge` hook trapped.
    pub oom_traps: u64,
    /// Telemetry entries handed to the Controller (duplicates included).
    pub entries: u64,
    /// Node datagrams sent.
    pub datagrams: u64,
    /// Agent commands the Controller emitted.
    pub commands: u64,
    /// Commands an Agent applied.
    pub applied: u64,
    /// `LimitAck`s returned.
    pub acks: u64,
    /// Reclamation-report entries fed back.
    pub reclaim_entries: u64,
    /// Containers killed.
    pub kills: u64,
    /// Pods torn down and replaced.
    pub churned: u64,
    /// Control-plane wire bytes, both directions.
    pub wire_bytes: u64,
}

/// One plant instance. Build a fresh one per repetition, so every
/// repetition does identical work.
#[derive(Debug)]
pub struct Plant {
    shape: PlantShape,
    params: Vec<DemandParams>,
    cluster: Cluster,
    controller: Controller,
    agents: Vec<Agent>,
    /// Live container ids per node, in deployment order.
    members: Vec<Vec<ContainerId>>,
    /// Demand state by raw container id.
    demand: Vec<DemandState>,
    rng: SimRng,
    net: Option<Network<ToController>>,
    ctl_addr: Addr,
    node_addrs: Vec<Addr>,
    cmd_faults: FaultInjector,
    rows: Vec<Vec<CpuStatsEntry>>,
    cols: Vec<CpuStatsColumns>,
    /// Nodes whose report fell due this period (scratch).
    due: Vec<usize>,
    /// Datagrams waiting for the Controller this period (scratch).
    inbox: Vec<ToController>,
    ooms: Vec<PendingOom>,
    /// Applied memory grants whose ack is still to be handed over.
    acks: Vec<(ContainerId, u64)>,
    actions: Vec<Action>,
    period: u64,
    churn_cursor: usize,
    /// Nanoseconds per decision, one value per timed group, in call order.
    pub samples: Vec<f32>,
    /// Circuit counters.
    pub counts: PlantCounts,
}

#[derive(Debug, Clone, Copy)]
struct PendingOom {
    container: ContainerId,
    shortfall_bytes: u64,
    current_limit_bytes: u64,
    delta_bytes: u64,
}

/// Records the time since `t0` as one sample of `n` decisions.
pub(crate) fn record_sample(samples: &mut Vec<f32>, t0: Instant, n: usize) {
    samples.push(t0.elapsed().as_nanos() as f32 / n.max(1) as f32);
}

/// Times one Controller call and records it as a decision sample.
macro_rules! decide {
    ($samples:expr, $call:expr) => {{
        let t0 = Instant::now();
        let r = $call;
        $crate::plant::record_sample(&mut $samples, t0, 1);
        r
    }};
}
pub(crate) use decide;

impl Plant {
    /// Deploys and registers the shape's containers and boots them.
    pub fn new(inputs: &PlantInputs) -> Self {
        let shape = inputs.shape.clone();
        let nodes = shape.nodes.max(1);
        let cluster = Cluster::new(vec![
            NodeSpec {
                cores: shape.node_cores,
                mem_bytes: 256 * 1024 * MIB,
            };
            nodes
        ]);
        let mut controller = Controller::new(EscraConfig::default());
        let apps = shape.apps.max(1);
        let per_app = shape.containers.div_ceil(apps).max(1) as u64;
        for a in 0..apps {
            // Room for every member at twice its start limits, so grants
            // succeed and a kill means the books went wrong.
            controller.register_app(
                AppId::new(a as u64),
                per_app as f64 * 2.0,
                per_app * 1024 * MIB,
            );
        }
        let mut net_seed = SimRng::new(inputs.seed).fork(0x6e65_7477); // "netw"
        let mut net = (!shape.faults.is_none()).then(|| {
            Network::with_faults(
                LatencyModel::zero(),
                net_seed.next_u64(),
                shape.faults.clone(),
            )
        });
        // Addresses are only labels for the fault injectors; without a
        // fabric they come from a throw-away one.
        let mut addr_source: Network<()> = Network::new(LatencyModel::zero(), 0);
        let mut register = || match net.as_mut() {
            Some(n) => n.register(),
            None => addr_source.register(),
        };
        let ctl_addr = register();
        let node_addrs = (0..nodes).map(|_| register()).collect();
        let mut plant = Plant {
            agents: cluster.nodes().iter().map(|n| Agent::new(n.id())).collect(),
            members: vec![Vec::new(); nodes],
            demand: Vec::with_capacity(shape.containers),
            rng: SimRng::new(inputs.seed).fork(0x6465_6d64), // "demd"
            cmd_faults: FaultInjector::new(shape.faults.clone(), net_seed.next_u64()),
            rows: vec![Vec::new(); nodes],
            cols: vec![CpuStatsColumns::new(); nodes],
            due: Vec::new(),
            inbox: Vec::new(),
            ooms: Vec::new(),
            acks: Vec::new(),
            actions: Vec::new(),
            period: 0,
            churn_cursor: 0,
            samples: Vec::new(),
            counts: PlantCounts::default(),
            params: inputs.demands.clone(),
            shape,
            cluster,
            controller,
            net,
            ctl_addr,
            node_addrs,
        };
        for i in 0..plant.shape.containers {
            plant.deploy(i, SimTime::ZERO);
        }
        // Boot: past the cold start, so the first period sees running pods.
        plant.cluster.tick(SimTime::from_secs(1));
        plant.samples.clear();
        plant.counts = PlantCounts::default();
        plant
    }

    /// The circuit's shape.
    pub fn shape(&self) -> &PlantShape {
        &self.shape
    }

    /// The plant's Controller (for state checks and probes).
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// The plant's Cluster (for state checks and probes).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Live container ids per node.
    pub fn members(&self) -> &[Vec<ContainerId>] {
        &self.members
    }

    /// Commands the Agents discarded as stale (duplicate deliveries).
    pub fn stale_discarded(&self) -> u64 {
        self.agents.iter().map(Agent::stale_discarded).sum()
    }

    /// What the command-side fault injector did.
    pub fn command_fault_stats(&self) -> escra_net::FaultStats {
        self.cmd_faults.stats()
    }

    /// What the telemetry-side fabric did (zero without a fault plan).
    pub fn telemetry_fault_stats(&self) -> escra_net::FaultStats {
        self.net
            .as_ref()
            .map(|n| n.fault_stats())
            .unwrap_or_default()
    }

    fn now(&self) -> SimTime {
        SimTime::from_secs(1) + SimDuration::from_micros((self.period + 1) * PERIOD_US)
    }

    /// Cold-starts one pod with the `index`-th demand parameters.
    fn deploy(&mut self, index: usize, now: SimTime) {
        let params = self.params[index % self.params.len()];
        let app = AppId::new((index % self.shape.apps.max(1)) as u64);
        let limit = params.mem_base + params.mem_span * 7 / 10;
        let spec = ContainerSpec::new(format!("plant-{index}"), app)
            .with_cpu_limit(1.0)
            .with_mem_limit(limit)
            .with_base_mem(params.mem_base)
            .with_restart_delay(SimDuration::from_millis(500));
        let cid = self.cluster.deploy(spec, now).expect("plant has nodes");
        let node = self.cluster.container(cid).expect("just deployed").node();
        self.members[node.as_u64() as usize].push(cid);
        let raw = cid.as_u64() as usize;
        debug_assert_eq!(raw, self.demand.len(), "cluster ids are dense");
        self.demand.push(DemandState {
            params,
            x: 0.0,
            burst_left: 0,
            mem_spike: false,
        });
        self.counts.wire_bytes += REGISTER_WIRE_BYTES;
        match self
            .controller
            .register_container(cid, app, node, 1.0, limit)
        {
            Ok(actions) => {
                self.actions.extend(actions);
                self.dispatch(now);
            }
            Err(err) => panic!("plant registration rejected: {err}"),
        }
    }

    /// Tears down the longest-lived pod of the next node in rotation and
    /// cold-starts a replacement (placement follows the cluster's
    /// round-robin cursor).
    fn churn(&mut self, now: SimTime) {
        let nodes = self.members.len();
        for probe in 0..nodes {
            let n = (self.churn_cursor + probe) % nodes;
            if self.members[n].is_empty() {
                continue;
            }
            let cid = self.members[n].remove(0);
            let _ = self.cluster.terminate(cid, now);
            let _ = self.controller.deregister_container(cid);
            for agent in &mut self.agents {
                agent.forget_container(cid);
            }
            self.churn_cursor = n + 1;
            self.counts.churned += 1;
            let index = self.demand.len();
            self.deploy(index, now);
            return;
        }
    }

    /// Carries out the Controller's pending actions, feeding acks and
    /// reclamation reports back until the cascade is quiet.
    fn dispatch(&mut self, now: SimTime) {
        let group = self.shape.decisions_per_sample.max(1);
        let mut i = 0;
        loop {
            while i < self.actions.len() {
                let action = self.actions[i];
                i += 1;
                let (node, cmd) = match action {
                    Action::KillContainer(cid) => {
                        let _ = self.cluster.oom_kill(cid, now);
                        self.counts.kills += 1;
                        continue;
                    }
                    Action::Agent { node, cmd } => (node, cmd),
                };
                self.counts.commands += 1;
                self.counts.wire_bytes += cmd.wire_bytes();
                let n = node.as_u64() as usize;
                let copies = match self
                    .cmd_faults
                    .decide(now, self.ctl_addr, self.node_addrs[n])
                {
                    FaultDecision::Drop => 0,
                    FaultDecision::Deliver { copies, .. } => copies,
                };
                for _ in 0..copies {
                    match self.agents[n].apply(&mut self.cluster, cmd) {
                        AgentReport::Applied => {
                            self.counts.applied += 1;
                            if let ToAgent::SetMemLimit { container, seq, .. } = cmd {
                                self.acks.push((container, seq));
                            }
                        }
                        AgentReport::Reclaimed(entries) => {
                            self.counts.applied += 1;
                            if entries.is_empty() {
                                continue;
                            }
                            self.counts.reclaim_entries += entries.len() as u64;
                            let more = decide!(
                                self.samples,
                                self.controller.on_reclaim_report(now, &entries)
                            );
                            self.actions.extend(more);
                        }
                        AgentReport::Stale => {}
                    }
                }
            }
            if self.acks.is_empty() {
                break;
            }
            let mut acks = std::mem::take(&mut self.acks);
            self.counts.acks += acks.len() as u64;
            for chunk in acks.chunks(group) {
                let t0 = Instant::now();
                for &(container, seq) in chunk {
                    self.controller.handle_into(
                        now,
                        ToController::LimitAck { container, seq },
                        &mut self.actions,
                    );
                }
                record_sample(&mut self.samples, t0, chunk.len());
            }
            acks.clear();
            self.acks = acks;
        }
        self.actions.clear();
    }

    /// One report period of the circuit.
    pub fn run_period(&mut self) {
        let now = self.now();
        let period_us = PERIOD_US as f64;
        self.cluster.tick(now);

        // CFS accounting, memory charging and telemetry encode, node-major
        // in deployment order (the Agent's collection order).
        for n in 0..self.members.len() {
            for k in 0..self.members[n].len() {
                let cid = self.members[n][k];
                let d = &mut self.demand[cid.as_u64() as usize];
                d.x = AR_PHI * d.x + (1.0 - AR_PHI) * (self.rng.next_f64() * 2.0 - 1.0);
                if d.burst_left > 0 {
                    d.burst_left -= 1;
                } else if self.rng.chance(BURST_ON) {
                    let draw = self.rng.next_below(11 * MEM_SPIKE_EVERY);
                    d.burst_left = 5 + (draw % 11) as u32;
                    d.mem_spike = draw / 11 == 0;
                }
                let bursting = d.burst_left > 0;
                let cores = d.params.level_cores
                    * (1.0 + 0.5 * d.x)
                    * if bursting { BURST_FACTOR } else { 1.0 };
                let target = d.params.mem_base
                    + if bursting && d.mem_spike {
                        d.params.mem_span
                    } else {
                        (d.params.mem_span as f64 * (0.3 + 0.2 * d.x)) as u64
                    };
                let c = self.cluster.container_mut(cid).expect("member is deployed");
                if !c.is_running() {
                    continue;
                }
                c.cpu.consume(cores * period_us);
                let stats = c.cpu.end_period();
                self.counts.container_periods += 1;
                self.counts.throttled_periods += stats.throttled as u64;
                let usage = c.mem.usage_bytes();
                if target > usage {
                    self.counts.charges += 1;
                    let delta = target - usage;
                    if let ChargeOutcome::WouldOom { shortfall_bytes } = c.mem.try_charge(delta) {
                        self.counts.oom_traps += 1;
                        self.ooms.push(PendingOom {
                            container: cid,
                            shortfall_bytes,
                            current_limit_bytes: c.mem.limit_bytes(),
                            delta_bytes: delta,
                        });
                    }
                } else {
                    c.mem.uncharge(usage - target);
                }
                if self.shape.columnar {
                    self.cols[n].push(cid, &stats);
                } else {
                    self.rows[n].push(CpuStatsEntry {
                        container: cid,
                        stats,
                    });
                }
            }
        }

        // Flush the nodes whose report timer fell due, handing the
        // Controller `group` datagrams per timed sample.
        let group = self.shape.decisions_per_sample.max(1);
        self.due.clear();
        for n in 0..self.members.len() {
            let mults = &self.shape.report_multipliers;
            let every = if mults.is_empty() {
                1
            } else {
                mults[n % mults.len()].max(1) as u64
            };
            let len = if self.shape.columnar {
                self.cols[n].len()
            } else {
                self.rows[n].len()
            };
            if (self.period + 1).is_multiple_of(every) && len > 0 {
                self.due.push(n);
                self.counts.datagrams += 1;
                self.counts.wire_bytes +=
                    CPU_STATS_HEADER_BYTES + len as u64 * CPU_STATS_ENTRY_BYTES;
            }
        }
        if self.net.is_none() && self.shape.columnar {
            // Straight from the Agents' column buffers, by reference.
            let due = std::mem::take(&mut self.due);
            for chunk in due.chunks(group) {
                let t0 = Instant::now();
                for &n in chunk {
                    self.controller
                        .ingest_cpu_columns_at(now, &self.cols[n], &mut self.actions);
                }
                record_sample(&mut self.samples, t0, chunk.len());
                for &n in chunk {
                    self.counts.entries += self.cols[n].len() as u64;
                    self.cols[n].clear();
                }
                self.dispatch(now);
            }
            self.due = due;
        } else {
            let mut inbox = std::mem::take(&mut self.inbox);
            for &n in &self.due {
                let node = NodeId::new(n as u64);
                let (msg, len) = if self.shape.columnar {
                    let columns = std::mem::take(&mut self.cols[n]);
                    let len = columns.len();
                    (ToController::CpuStatsColumns { node, columns }, len)
                } else {
                    let entries = std::mem::take(&mut self.rows[n]);
                    let len = entries.len();
                    (ToController::CpuStatsBatch { node, entries }, len)
                };
                match self.net.as_mut() {
                    Some(net) => {
                        let wire = CPU_STATS_HEADER_BYTES + len as u64 * CPU_STATS_ENTRY_BYTES;
                        net.send(now, self.node_addrs[n], self.ctl_addr, msg, wire);
                    }
                    None => inbox.push(msg),
                }
            }
            if let Some(net) = self.net.as_mut() {
                inbox.extend(net.poll(now).into_iter().map(|(_, d)| d.message));
            }
            let mut waiting = inbox.drain(..);
            loop {
                let t0 = Instant::now();
                let mut handled = 0;
                for msg in waiting.by_ref().take(group) {
                    self.counts.entries += match &msg {
                        ToController::CpuStatsBatch { entries, .. } => entries.len() as u64,
                        ToController::CpuStatsColumns { columns, .. } => columns.len() as u64,
                        _ => 0,
                    };
                    self.controller.handle_into(now, msg, &mut self.actions);
                    handled += 1;
                }
                if handled == 0 {
                    break;
                }
                record_sample(&mut self.samples, t0, handled);
                self.dispatch(now);
            }
            drop(waiting);
            self.inbox = inbox;
        }

        // Trapped charges: OOM event → grant (or reconcile) → retry.
        let mut ooms = std::mem::take(&mut self.ooms);
        for chunk in ooms.chunks(group) {
            let t0 = Instant::now();
            for oom in chunk {
                self.controller.handle_into(
                    now,
                    ToController::OomEvent {
                        container: oom.container,
                        shortfall_bytes: oom.shortfall_bytes,
                        current_limit_bytes: oom.current_limit_bytes,
                    },
                    &mut self.actions,
                );
            }
            record_sample(&mut self.samples, t0, chunk.len());
            self.counts.wire_bytes += OOM_EVENT_WIRE_BYTES * chunk.len() as u64;
            self.dispatch(now);
            for oom in chunk {
                if let Some(c) = self.cluster.container_mut(oom.container) {
                    if c.is_running() {
                        // A lost grant leaves the charge trapped; the next
                        // period's event reconciles it.
                        let _ = c.mem.try_charge(oom.delta_bytes);
                    }
                }
            }
        }
        ooms.clear();
        self.ooms = ooms;

        // Periodic work: grant retries and the 5 s reclamation sweep.
        self.controller.tick_into(now, &mut self.actions);
        self.dispatch(now);

        if self.shape.churn_every > 0 && (self.period + 1).is_multiple_of(self.shape.churn_every) {
            self.churn(now);
        }
        self.period += 1;
    }

    /// Runs the shape's periods for one repetition.
    pub fn run(&mut self) {
        for _ in 0..self.shape.periods {
            self.run_period();
        }
    }

    /// The paper's invariants on the final state: per application,
    /// tracked limits sum to the pool's allocation and stay inside the
    /// global limit; per running container, limit ≥ usage.
    pub fn invariants_hold(&self) -> bool {
        let allocator = self.controller.allocator();
        for a in 0..self.shape.apps.max(1) {
            let app = AppId::new(a as u64);
            let Some(pool) = allocator.app_pool(app) else {
                return false;
            };
            let cpu = allocator.tracked_cpu_sum(app);
            if (cpu - pool.allocated_cpu_cores()).abs() > 1e-6 * cpu.max(1.0)
                || pool.allocated_cpu_cores() > pool.cpu_limit_cores() + 1e-9
                || allocator.tracked_mem_sum(app) != pool.allocated_mem_bytes()
                || pool.allocated_mem_bytes() > pool.mem_limit_bytes()
            {
                return false;
            }
        }
        self.cluster
            .containers()
            .filter(|c| c.is_running())
            .all(|c| c.mem.limit_bytes() >= c.mem.usage_bytes() && c.cpu.quota_cores() > 0.0)
    }

    /// A deterministic summary of everything the circuit did, for the
    /// per-repetition output digest.
    pub fn summary(&self) -> String {
        format!(
            "{:?}|{:?}|{}|{:?}|{:?}|{}",
            self.counts,
            self.controller.stats(),
            self.stale_discarded(),
            self.command_fault_stats(),
            self.telemetry_fault_stats(),
            self.samples.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(columnar: bool, faults: FaultPlan) -> PlantInputs {
        PlantInputs::generate(
            PlantShape {
                nodes: 3,
                node_cores: 16,
                containers: 30,
                apps: 2,
                columnar,
                report_multipliers: vec![1, 2],
                faults,
                churn_every: 25,
                periods: 300,
                decisions_per_sample: 2,
            },
            11,
        )
    }

    #[test]
    fn circuit_runs_decides_and_keeps_the_books() {
        for columnar in [false, true] {
            let mut plant = Plant::new(&small(columnar, FaultPlan::none()));
            plant.run();
            let c = plant.counts;
            assert!(c.container_periods > 8_000, "{c:?}");
            assert_eq!(c.entries, c.container_periods, "every period reported once");
            assert!(c.commands > 0 && c.applied == c.commands, "{c:?}");
            assert!(
                c.oom_traps > 0 && c.acks > 0,
                "memory path exercised: {c:?}"
            );
            assert!(c.reclaim_entries > 0, "sweeps reclaimed: {c:?}");
            assert_eq!(c.churned, 12);
            assert_eq!(c.kills, 0);
            // Two datagrams per sample at most, so at least half as many.
            assert!(plant.samples.len() as u64 * 2 >= c.datagrams);
            assert!(plant.samples.iter().all(|s| s.is_finite() && *s > 0.0));
            assert!(plant.invariants_hold());
        }
    }

    /// What the microsim workloads' `throttled_frac` rests on: with
    /// head-room in the pools, the Controller answers every throttled
    /// entry with exactly one scale-up.
    #[test]
    fn scale_ups_count_the_throttled_periods() {
        let mut inputs = small(true, FaultPlan::none());
        inputs.shape.report_multipliers = vec![1];
        inputs.shape.churn_every = 0;
        let mut plant = Plant::new(&inputs);
        plant.run();
        let throttled = plant.counts.throttled_periods;
        assert!(throttled > 100, "{:?}", plant.counts);
        assert_eq!(plant.controller().stats().scale_ups, throttled);
    }

    #[test]
    fn same_inputs_same_circuit() {
        let inputs = small(true, FaultPlan::none());
        let mut a = Plant::new(&inputs);
        let mut b = Plant::new(&inputs);
        a.run();
        b.run();
        assert_eq!(a.summary(), b.summary());
        let mut c = Plant::new(&small(false, FaultPlan::none()));
        c.run();
        // Row and columnar telemetry of integer-microsecond statistics
        // are not bit-identical here (the rows carry fractions), but the
        // circuits see the same demand.
        assert_eq!(a.counts.container_periods, c.counts.container_periods);
    }

    #[test]
    fn faults_lose_duplicate_and_recover() {
        let plan = FaultPlan::none()
            .with_loss(0.05)
            .with_duplicates(0.05)
            .with_delay_spikes(0.05, SimDuration::from_millis(250));
        let mut plant = Plant::new(&small(false, plan));
        plant.run();
        let tel = plant.telemetry_fault_stats();
        let cmd = plant.command_fault_stats();
        assert!(
            tel.dropped > 0 && tel.duplicated > 0 && tel.delayed > 0,
            "{tel:?}"
        );
        assert!(cmd.dropped > 0 && cmd.duplicated > 0, "{cmd:?}");
        assert!(
            plant.stale_discarded() > 0,
            "duplicated commands are discarded"
        );
        assert!(plant.counts.applied < plant.counts.commands + cmd.duplicated);
        assert_eq!(plant.counts.kills, 0, "lost grants are retried, not fatal");
        assert!(plant.invariants_hold());
    }
}
