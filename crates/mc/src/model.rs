//! The model: real control-plane state machines behind an enumerable
//! network, plus the branching transition relation.
//!
//! Nothing here re-implements protocol logic — the [`World`] steps the
//! production [`Controller`], [`Agent`] and [`Cluster`] (live memory
//! cgroups included), and it delivers through `escra_core`'s delivery
//! step ([`Delivery`]), the same glue the drivers' control plane runs:
//! the Agent's reply rule, action routing and reclaim-report crediting.
//! A round here is one delivery. The model only supplies what the
//! checker must control — which in-flight message moves next, when OOMs
//! trap, when timers fire — and three hooks around the step: the
//! mutation filters, the trapped charge retried after an applied grant,
//! and the kill bookkeeping. Known-bad [`Mutation`]s can be seeded to
//! prove the invariants have teeth.

use escra_cfs::CpuPeriodStats;
use escra_cluster::{AppId, Cluster, ContainerId, ContainerSpec, ContainerState, NodeId, NodeSpec};
use escra_core::{Agent, Controller, Delivery, Envelope, EscraConfig, ToAgent, ToController};
use escra_metrics::fingerprint::{fingerprint128, Fingerprint, StateHash};
use escra_metrics::trace::{NoopSink, TraceEventKind, TraceSink};
use escra_net::inflight::InFlightSet;
use escra_simcore::time::{SimDuration, SimTime};

/// The single application all model containers share (pool interaction
/// is the point of the exercise).
pub const APP: AppId = AppId::new(0);

const MIB: u64 = 1 << 20;

/// A bounded model-checking configuration: topology, memory geometry
/// and event budgets. Budgets bound the state space; the transition
/// relation can only *consume* them, so every exploration terminates.
#[derive(Debug, Clone, PartialEq)]
pub struct McConfig {
    /// Worker nodes, one [`Agent`] each (1–2 for tractable runs).
    pub agents: usize,
    /// Containers, placed round-robin over the nodes (1–3).
    pub containers: usize,
    /// The application pool's global memory limit.
    pub app_mem_bytes: u64,
    /// Initial per-container memory limit.
    pub container_mem_bytes: u64,
    /// Initial per-container memory usage.
    pub base_mem_bytes: u64,
    /// Bytes a container tries to charge when its OOM event fires.
    pub oom_chunk_bytes: u64,
    /// OOM firings allowed per container.
    pub ooms_per_container: u32,
    /// Fully-throttled CPU telemetry reports allowed per reporting
    /// container.
    pub cpu_reports_per_container: u32,
    /// How many containers (lowest indices first) emit CPU telemetry.
    /// One reporter is enough to exercise the cross-kind seq
    /// interleavings — its stats fan quota commands out to **every**
    /// container of the app — at a fraction of the state space of
    /// symmetric reporting (which is ~600× larger on the smoke
    /// geometry).
    pub cpu_report_containers: usize,
    /// Grant-retry timer firings allowed.
    pub ticks: u32,
    /// Message drops allowed.
    pub drops: u32,
    /// Message duplications allowed.
    pub duplicates: u32,
    /// Seeded protocol mutation ([`Mutation::None`] for the real thing).
    pub mutation: Mutation,
    /// The Escra tunables the controller runs with.
    pub escra: EscraConfig,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig::smoke()
    }
}

impl McConfig {
    /// The gated smoke configuration: 1 controller × 2 agents ×
    /// 2 containers with drop + duplicate + reorder branching, one OOM
    /// per container, one throttled CPU period on container 0, and
    /// enough pool to make every OOM grantable (violation-free by
    /// design).
    pub fn smoke() -> Self {
        McConfig {
            agents: 2,
            containers: 2,
            app_mem_bytes: 320 * MIB,
            container_mem_bytes: 96 * MIB,
            base_mem_bytes: 64 * MIB,
            oom_chunk_bytes: 48 * MIB,
            ooms_per_container: 1,
            cpu_reports_per_container: 1,
            cpu_report_containers: 1,
            ticks: 1,
            drops: 1,
            duplicates: 1,
            mutation: Mutation::None,
            escra: Self::escra_defaults(),
        }
    }

    /// A pool-starved variant: registration leaves only 8 MiB of
    /// headroom, so the first OOM is denied and the deny → sweep →
    /// retry → grant-or-kill path is explored too.
    pub fn tight_pool() -> Self {
        McConfig {
            app_mem_bytes: 200 * MIB,
            cpu_reports_per_container: 0,
            ..Self::smoke()
        }
    }

    /// The [`Mutation::SkipStaleDiscard`] hunt configuration: 1 agent ×
    /// 1 container with **two** OOM firings and a duplicate budget. Two
    /// OOMs before the first grant lands put two `SetMemLimit`s with
    /// different values (128 then 160 MiB) in flight at once; a
    /// duplicated copy of the first, delivered after the second, is
    /// exactly the stale message the seq check exists to discard — the
    /// mutated agent re-applies it (above live usage, so the safety
    /// valve stays quiet) and the books diverge at quiescence.
    pub fn stale_window() -> Self {
        McConfig {
            agents: 1,
            containers: 1,
            ooms_per_container: 2,
            cpu_reports_per_container: 0,
            cpu_report_containers: 0,
            ticks: 0,
            drops: 0,
            duplicates: 1,
            ..Self::smoke()
        }
    }

    /// The cross-kind configuration: 1 agent × 1 container, one OOM,
    /// one throttled CPU period, one drop. The quota command takes a seq
    /// above the pending memory grant's. When Agents acked CPU commands,
    /// that ack retired a dropped grant under the pre-fix
    /// [`Mutation::AckClearsBySeqLe`] rule; only `SetMemLimit` is acked
    /// now, and here the mutation explores exactly the honest states.
    pub fn cross_kind() -> Self {
        McConfig {
            agents: 1,
            containers: 1,
            ooms_per_container: 1,
            cpu_reports_per_container: 1,
            cpu_report_containers: 1,
            ticks: 0,
            drops: 1,
            duplicates: 0,
            ..Self::smoke()
        }
    }

    /// A deliberately tiny configuration (1 agent, 1 container, no CPU
    /// traffic) for debug-build property tests.
    pub fn tiny() -> Self {
        McConfig {
            agents: 1,
            containers: 1,
            cpu_reports_per_container: 0,
            ticks: 1,
            ..Self::smoke()
        }
    }

    /// The Escra tunables used by the model: paper defaults, except the
    /// periodic reclaim interval is pushed out to 10 min so proactive
    /// sweeps do not fire inside the (seconds-long) bounded horizon —
    /// the quiescence closure still advances to it when parked OOMs
    /// depend on the periodic loop — and grant retries are capped at 2
    /// to keep the retry/abandon tail short.
    pub fn escra_defaults() -> EscraConfig {
        EscraConfig {
            reclaim_interval: SimDuration::from_secs(600),
            grant_max_retries: 2,
            ..EscraConfig::default()
        }
    }

    /// Applies a mutation (builder style).
    pub fn with_mutation(mut self, mutation: Mutation) -> Self {
        self.mutation = mutation;
        self
    }
}

/// A seeded known-bad protocol variant, used to prove the invariants
/// catch real bugs (and as committed regressions for the two fixed
/// ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The honest protocol.
    None,
    /// Agents skip the stale-seq discard: a reordered or duplicated old
    /// `SetMemLimit` rolls the enforced limit back below the tracked
    /// one after the grant's ack already retired it.
    SkipStaleDiscard,
    /// The controller clears a pending grant on any ack with
    /// `seq >= pending.seq` — the pre-fix `LimitAck` bug, found when
    /// Agents acked CPU commands too. Only `SetMemLimit` is acked now,
    /// and no ack can carry a seq above its container's pending grant,
    /// so this mutation is unreachable: it explores exactly the honest
    /// state space (`mc_explore --smoke` asserts that).
    AckClearsBySeqLe,
    /// Agents apply a `SetMemLimit` but never ack it: the step's
    /// `LimitAck` reply is dropped (the pod drivers' old glue).
    NeverAckMemLimit,
    /// Agents run a reclamation sweep but its report never reaches the
    /// Controller: the step's `Report` reply is dropped (Fig. 2's old
    /// loop).
    DropReclaimReports,
}

/// One branching choice of the transition relation. Indices are over
/// the *distinct* in-flight messages in canonical order, or over the
/// model's containers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// Deliver the i-th distinct in-flight message.
    Deliver(u8),
    /// The network loses one copy of the i-th distinct message.
    Drop(u8),
    /// The network duplicates the i-th distinct message.
    Duplicate(u8),
    /// Container `c` attempts its memory charge and (if short) traps.
    Oom(u8),
    /// Container `c` reports a fully-throttled CPU period.
    CpuReport(u8),
    /// The grant-retry timer fires (time advances by one timeout).
    Tick,
}

impl core::fmt::Display for Choice {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Choice::Deliver(i) => write!(f, "deliver#{i}"),
            Choice::Drop(i) => write!(f, "drop#{i}"),
            Choice::Duplicate(i) => write!(f, "dup#{i}"),
            Choice::Oom(c) => write!(f, "oom@c{c}"),
            Choice::CpuReport(c) => write!(f, "cpu@c{c}"),
            Choice::Tick => write!(f, "tick"),
        }
    }
}

/// One explorable control-plane state: the production state machines,
/// the in-flight multiset, and the remaining event budgets.
#[derive(Debug, Clone)]
pub struct World<S: TraceSink = NoopSink> {
    /// The configuration this world was built from.
    pub cfg: McConfig,
    /// The real cluster (nodes + containers with live cgroups).
    pub cluster: Cluster,
    /// The real Controller (books, pending grants, retry timers).
    pub controller: Controller<S>,
    /// One real Agent per node (seq maps, valve, sweeps).
    pub agents: Vec<Agent>,
    /// The network as a canonical multiset. Sweep reports are modelled
    /// reliable: one is the response of the blocking sweep RPC, and
    /// losing the call itself is modelled by dropping the
    /// `ReclaimMemory` command.
    pub net: InFlightSet<Envelope>,
    /// Model time; advances only on [`Choice::Tick`].
    pub now: SimTime,
    /// Sink for agent-side and network-fault trace events (the
    /// controller records into its own embedded sink).
    pub side_sink: S,
    /// The model's container ids, in deploy order.
    pub containers: Vec<ContainerId>,
    /// Unsatisfied charge demand per container (bytes).
    pub want: Vec<u64>,
    /// The delivery step's buffers, empty between transitions.
    step: Delivery,
    oom_budget: Vec<u32>,
    cpu_budget: Vec<u32>,
    tick_budget: u32,
    drop_budget: u32,
    dup_budget: u32,
    /// Messages ever put in flight (stat only; excluded from hashing).
    pub msgs_sent: u64,
    /// Drop choices taken (stat only).
    pub msgs_dropped: u64,
    /// Duplicate choices taken (stat only).
    pub msgs_duplicated: u64,
}

impl World<NoopSink> {
    /// Builds the untraced initial state for exploration.
    pub fn new(cfg: McConfig) -> Self {
        World::with_sinks(cfg, NoopSink, NoopSink)
    }
}

impl<S: TraceSink> World<S> {
    /// Builds the initial state: containers deployed and running,
    /// controller bootstrapped (registration commands applied cleanly,
    /// outside the chaos), network empty, budgets full.
    pub fn with_sinks(cfg: McConfig, ctl_sink: S, side_sink: S) -> Self {
        let mut cluster = Cluster::new(
            (0..cfg.agents)
                .map(|_| NodeSpec {
                    cores: 16,
                    mem_bytes: 16 << 30,
                })
                .collect(),
        );
        let mut containers = Vec::new();
        for i in 0..cfg.containers {
            let id = cluster
                .deploy(
                    ContainerSpec::new(format!("c{i}"), APP)
                        .with_mem_limit(cfg.container_mem_bytes)
                        .with_base_mem(cfg.base_mem_bytes),
                    SimTime::ZERO,
                )
                .expect("deploy");
            containers.push(id);
        }
        let start = SimTime::from_secs(3);
        cluster.tick(start);

        let mut controller = Controller::with_sink(cfg.escra.clone(), ctl_sink);
        controller.register_app(APP, cfg.agents as f64 * 8.0, cfg.app_mem_bytes);
        let mut agents: Vec<Agent> = (0..cfg.agents)
            .map(|i| Agent::new(NodeId::new(i as u64)))
            .collect();
        let mut side_sink = side_sink;
        let mut step = Delivery::default();
        for &id in &containers {
            let node = cluster.container(id).expect("deployed").node();
            let bootstrap = controller
                .register_container(id, APP, node, 1.0, cfg.container_mem_bytes)
                .expect("register");
            // Bootstrap commands apply synchronously and their replies
            // are dropped: the initial sync is not part of the explored
            // chaos.
            let mut cmds = Vec::new();
            step.actions.extend(bootstrap);
            step.route(start, &mut cluster, |node, cmd| cmds.push((node, cmd)));
            for (node, cmd) in cmds {
                let ai = node.as_u64() as usize;
                let _ = agents[ai].apply_traced(start, &mut cluster, cmd, &mut side_sink);
            }
        }

        let n = cfg.containers;
        World {
            cluster,
            controller,
            agents,
            net: InFlightSet::new(),
            now: start,
            side_sink,
            containers,
            want: vec![0; n],
            step,
            oom_budget: vec![cfg.ooms_per_container; n],
            cpu_budget: (0..n)
                .map(|i| {
                    if i < cfg.cpu_report_containers {
                        cfg.cpu_reports_per_container
                    } else {
                        0
                    }
                })
                .collect(),
            tick_budget: cfg.ticks,
            drop_budget: cfg.drops,
            dup_budget: cfg.duplicates,
            msgs_sent: 0,
            msgs_dropped: 0,
            msgs_duplicated: 0,
            cfg,
        }
    }

    fn index_of(&self, container: ContainerId) -> Option<usize> {
        self.containers.iter().position(|&c| c == container)
    }

    fn running(&self, idx: usize) -> bool {
        self.cluster
            .container(self.containers[idx])
            .is_some_and(|c| c.is_running())
    }

    /// Whether the i-th distinct message may be dropped/duplicated
    /// (sweep reports are modelled reliable, see [`World::net`]).
    fn faultable(&self, i: usize) -> bool {
        !matches!(self.net.get(i).0, Envelope::Report(..))
    }

    /// Enumerates every enabled transition of this state, in a
    /// deterministic order.
    pub fn enabled_choices(&self) -> Vec<Choice> {
        let mut out = Vec::new();
        let distinct = self.net.distinct_len();
        for i in 0..distinct {
            out.push(Choice::Deliver(i as u8));
        }
        if self.drop_budget > 0 {
            for i in 0..distinct {
                if self.faultable(i) {
                    out.push(Choice::Drop(i as u8));
                }
            }
        }
        if self.dup_budget > 0 {
            for i in 0..distinct {
                if self.faultable(i) {
                    out.push(Choice::Duplicate(i as u8));
                }
            }
        }
        for c in 0..self.containers.len() {
            if self.running(c) {
                if self.oom_budget[c] > 0 {
                    out.push(Choice::Oom(c as u8));
                }
                if self.cpu_budget[c] > 0 {
                    out.push(Choice::CpuReport(c as u8));
                }
            }
        }
        if self.tick_budget > 0 {
            out.push(Choice::Tick);
        }
        out
    }

    /// A human-readable description of what `choice` does in this state
    /// (used by counterexample scripts; call *before* [`World::apply`]).
    pub fn describe(&self, choice: Choice) -> String {
        let msg_at = |i: u8| {
            let (m, copies) = self.net.get(i as usize);
            if copies > 1 {
                format!("{m:?} (x{copies})")
            } else {
                format!("{m:?}")
            }
        };
        match choice {
            Choice::Deliver(i) => format!("deliver {}", msg_at(i)),
            Choice::Drop(i) => format!("drop {}", msg_at(i)),
            Choice::Duplicate(i) => format!("duplicate {}", msg_at(i)),
            Choice::Oom(c) => format!(
                "oom: container {} attempts +{} MiB",
                self.containers[c as usize],
                self.cfg.oom_chunk_bytes / MIB
            ),
            Choice::CpuReport(c) => {
                format!(
                    "cpu: container {} throttled period",
                    self.containers[c as usize]
                )
            }
            Choice::Tick => format!(
                "tick: now += {} ms (retry timer)",
                self.cfg.escra.grant_retry_timeout.as_micros() / 1000
            ),
        }
    }

    /// Applies one transition. The choice must come from
    /// [`World::enabled_choices`] of this exact state.
    pub fn apply(&mut self, choice: Choice) {
        match choice {
            Choice::Deliver(i) => {
                let env = self.net.take(i as usize);
                self.deliver_round(env);
            }
            Choice::Drop(i) => {
                let msg = self.net.take(i as usize);
                self.drop_budget -= 1;
                self.msgs_dropped += 1;
                if S::ENABLED {
                    let (from, to) = Self::addr_of(&msg);
                    self.side_sink.emit(
                        self.now,
                        TraceEventKind::FaultDrop {
                            from,
                            to,
                            partitioned: false,
                        },
                    );
                }
            }
            Choice::Duplicate(i) => {
                self.net.duplicate(i as usize);
                self.dup_budget -= 1;
                self.msgs_duplicated += 1;
                if S::ENABLED {
                    let (from, to) = Self::addr_of(self.net.get(i as usize).0);
                    self.side_sink
                        .emit(self.now, TraceEventKind::FaultDuplicate { from, to });
                }
            }
            Choice::Oom(c) => {
                let idx = c as usize;
                self.oom_budget[idx] -= 1;
                if self.want[idx] == 0 {
                    self.want[idx] = self.cfg.oom_chunk_bytes;
                }
                self.attempt_charge(idx, true);
            }
            Choice::CpuReport(c) => {
                let idx = c as usize;
                self.cpu_budget[idx] -= 1;
                let cid = self.containers[idx];
                let quota = self
                    .cluster
                    .container(cid)
                    .expect("model containers persist")
                    .cpu
                    .quota_cores();
                let period_us = self.cfg.escra.report_period.as_micros() as f64;
                self.send(Envelope::ToCtl(ToController::CpuStats {
                    container: cid,
                    stats: CpuPeriodStats {
                        quota_cores: quota,
                        unused_runtime_us: 0.0,
                        usage_us: quota * period_us,
                        throttled: true,
                    },
                }));
            }
            Choice::Tick => {
                self.tick_budget -= 1;
                let next = self.now + self.cfg.escra.grant_retry_timeout;
                self.clean_tick_to(next);
            }
        }
    }

    /// Advances time to `t` fault-free: cluster lifecycle (restarts) and
    /// the controller's timers run; emitted commands go in flight.
    pub fn clean_tick_to(&mut self, t: SimTime) {
        self.now = t;
        self.cluster.tick(t);
        self.controller.tick_into(t, &mut self.step.actions);
        let (net, sent) = (&mut self.net, &mut self.msgs_sent);
        self.step.route(t, &mut self.cluster, |node, cmd| {
            command(net, sent, node, cmd)
        });
        self.settle_kills();
    }

    fn send(&mut self, env: Envelope) {
        self.msgs_sent += 1;
        self.net.insert(env);
    }

    fn addr_of(env: &Envelope) -> (u64, u64) {
        // Controller = 0, node n = 1 + n; good enough for trace lines.
        match env {
            Envelope::ToCtl(_) => (1, 0),
            Envelope::ToNode(n, _) => (0, 1 + n.as_u64()),
            Envelope::Report(n, _) => (1 + n.as_u64(), 0),
        }
    }

    /// Delivers `env` through the delivery step as a round of its own,
    /// with the model's hooks around the step: the mutation filters,
    /// the trapped charge retried once a grant applies, and the kill
    /// bookkeeping.
    fn deliver_round(&mut self, mut env: Envelope) {
        let now = self.now;
        let mutation = self.cfg.mutation;
        if mutation == Mutation::AckClearsBySeqLe {
            // Re-introduce the pre-fix `pending.seq <= seq` rule by
            // rewriting any not-older ack to the pending seq.
            if let Envelope::ToCtl(ToController::LimitAck { container, seq }) = env {
                if let Some(p) = self.controller.pending_grant_seq(container) {
                    if p <= seq {
                        env = Envelope::ToCtl(ToController::LimitAck { container, seq: p });
                    }
                }
            }
        }
        let World {
            step,
            controller,
            cluster,
            agents,
            side_sink,
            net,
            msgs_sent,
            ..
        } = self;
        let mut send = |node, cmd| command(net, msgs_sent, node, cmd);
        let apply = |cluster: &mut Cluster, node: NodeId, cmd| {
            let agent = &mut agents[node.as_u64() as usize];
            if mutation == Mutation::SkipStaleDiscard {
                match cmd {
                    ToAgent::SetCpuQuota { container, .. }
                    | ToAgent::SetMemLimit { container, .. } => {
                        // Wipe the high-water mark so the stale check
                        // always passes: the seeded bug.
                        agent.forget_container(container);
                    }
                    ToAgent::ReclaimMemory { .. } => {}
                }
            }
            agent.apply_traced(now, cluster, cmd, side_sink)
        };
        let reply = step.deliver(now, env, controller, cluster, apply, &mut send);
        step.end_round(now, controller, cluster, send);
        if let Some((_, reply)) = reply {
            match reply {
                Envelope::ToCtl(ToController::LimitAck { container, .. }) => {
                    // A raised limit may satisfy the trapped charge.
                    if let Some(idx) = self.index_of(container) {
                        self.attempt_charge(idx, false);
                    }
                    if mutation != Mutation::NeverAckMemLimit {
                        self.send(reply);
                    }
                }
                Envelope::Report(..) if mutation == Mutation::DropReclaimReports => {}
                // The reply travels the faulty network like any other
                // message.
                _ => self.send(reply),
            }
        }
        self.settle_kills();
    }

    /// Settles the kills the step routed: a kill resolves the trapped
    /// charge, and the container fires no more OOMs inside the bound.
    fn settle_kills(&mut self) {
        for c in self.step.killed.drain(..) {
            if let Some(idx) = self.containers.iter().position(|&m| m == c) {
                self.want[idx] = 0;
                self.oom_budget[idx] = 0;
            }
        }
    }

    /// Retries container `idx`'s outstanding charge against its current
    /// enforced limit; when still short and `trap` is set, an
    /// [`ToController::OomEvent`] goes in flight (the kernel trap).
    fn attempt_charge(&mut self, idx: usize, trap: bool) {
        let want = self.want[idx];
        if want == 0 {
            return;
        }
        let cid = self.containers[idx];
        let Some(c) = self.cluster.container_mut(cid) else {
            return;
        };
        if !c.is_running() {
            return;
        }
        let limit = c.mem.limit_bytes();
        let usage = c.mem.usage_bytes();
        let headroom = limit.saturating_sub(usage);
        if headroom >= want {
            let outcome = c.mem.try_charge(want);
            debug_assert!(outcome.is_charged());
            self.want[idx] = 0;
        } else if trap {
            self.send(Envelope::ToCtl(ToController::OomEvent {
                container: cid,
                shortfall_bytes: want - headroom,
                current_limit_bytes: limit,
            }));
        }
    }

    /// Folds every behaviourally relevant field into `h` (stat counters
    /// excluded). The schema is fixed; see the field-by-field comments.
    pub fn fingerprint_into(&self, h: &mut StateHash) {
        h.write_u64(self.now.as_micros());
        // Controller books: allocator pools + tracks, nodes, next_seq,
        // reclaim schedule, parked OOMs, pending grants.
        self.controller.fingerprint_into(h);
        // Agent seq maps, plus the valve counter: it backs invariant I5
        // (valve silence), so a clamped state must never be merged with
        // a clean one by the visited-set pruning.
        for a in &self.agents {
            a.fingerprint_into(h);
            h.write_u64(a.valve_clamps());
        }
        // Node-side truth: lifecycle, cgroup usage/limit/quota, and the
        // model's outstanding demand + budgets per container.
        for (idx, &cid) in self.containers.iter().enumerate() {
            let c = self
                .cluster
                .container(cid)
                .expect("model containers persist");
            match c.state() {
                ContainerState::Starting { ready_at } => {
                    h.write_u32(0);
                    h.write_u64(ready_at.as_micros());
                }
                ContainerState::Running => h.write_u32(1),
                ContainerState::Terminated => h.write_u32(2),
            }
            h.write_u64(c.mem.usage_bytes());
            h.write_u64(c.mem.limit_bytes());
            h.write_f64(c.cpu.quota_cores());
            h.write_u64(self.want[idx]);
            h.write_u32(self.oom_budget[idx]);
            h.write_u32(self.cpu_budget[idx]);
        }
        h.write_u32(self.tick_budget);
        h.write_u32(self.drop_budget);
        h.write_u32(self.dup_budget);
        // The in-flight multiset.
        self.net.fingerprint_into(h);
    }

    /// The 128-bit canonical fingerprint of this state.
    pub fn fingerprint(&self) -> Fingerprint {
        fingerprint128(|h| self.fingerprint_into(h))
    }
}

/// Puts the Controller's `cmd` to `node` in flight.
fn command(net: &mut InFlightSet<Envelope>, sent: &mut u64, node: NodeId, cmd: ToAgent) {
    *sent += 1;
    net.insert(Envelope::ToNode(node, cmd));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_is_deterministic_and_quiet() {
        let a = World::new(McConfig::smoke());
        let b = World::new(McConfig::smoke());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(a.net.is_empty());
        assert_eq!(a.controller.pending_grant_count(), 0);
        // Bootstrap synced the books to the nodes.
        for &cid in &a.containers {
            assert_eq!(
                a.controller.allocator().mem_limit_of(cid),
                Some(a.cluster.container(cid).unwrap().mem.limit_bytes())
            );
        }
    }

    #[test]
    fn oom_then_grant_delivery_converges() {
        let mut w = World::new(McConfig::smoke());
        w.apply(Choice::Oom(0));
        assert_eq!(w.net.distinct_len(), 1, "OOM event in flight");
        w.apply(Choice::Deliver(0)); // controller grants
        assert_eq!(w.controller.pending_grant_count(), 1);
        w.apply(Choice::Deliver(0)); // agent applies, ack in flight
        w.apply(Choice::Deliver(0)); // ack retires the grant
        assert_eq!(w.controller.pending_grant_count(), 0);
        assert!(w.net.is_empty());
        // The charge went through at the raised limit.
        assert_eq!(w.want[0], 0);
        let c = w.cluster.container(w.containers[0]).unwrap();
        assert!(c.mem.usage_bytes() > w.cfg.base_mem_bytes);
    }

    #[test]
    fn fingerprint_distinguishes_branch_orders_but_not_paths_to_same_state() {
        let base = World::new(McConfig::smoke());
        // Two different first moves → different states.
        let mut a = base.clone();
        a.apply(Choice::Oom(0));
        let mut b = base.clone();
        b.apply(Choice::Oom(1));
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Same two moves in either order → same state (both OOMs fired,
        // both events in flight).
        let mut ab = a.clone();
        ab.apply(Choice::Oom(1));
        let mut ba = b;
        ba.apply(Choice::Oom(0));
        assert_eq!(ab.fingerprint(), ba.fingerprint());
    }
}
