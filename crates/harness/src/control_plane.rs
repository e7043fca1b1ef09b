//! The Escra control plane of the [`microsim`](crate::microsim) driver:
//! the Controller, one Agent per node, and the simulated fabric between
//! them.
//!
//! Every runtime message passes through a [`FaultInjector`]; with
//! [`FaultPlan::none`] the injector draws no randomness and every message
//! is delivered synchronously, which keeps faultless runs bit-identical
//! to the pre-fault-layer simulator.
//!
//! What a message does once it arrives is not decided here: the plane
//! delivers its FIFO queue through `escra_core`'s delivery step
//! ([`Delivery`]: the Agent's reply rule, action routing, one
//! reclaim-report credit per delivery round), the same step the model
//! checker explores. The plane keeps the wire: fault decisions, delay
//! spikes, byte accounting, the [`PUMP_GUARD`] and the clean-datagram
//! fast path of [`ControlPlane::send_batch`].
//!
//! # Tracing
//!
//! The plane is generic over a [`TraceSink`], the way
//! [`Controller<S>`] is: the Controller records into its own sink, every
//! Agent into one sink per node ([`Agent::apply_traced`]), and the fault
//! injector into one more ([`FaultInjector::decide_traced`]). Tracing
//! only emits — it draws no randomness and moves no decision — and at
//! the default [`NoopSink`] every site compiles away.

use crate::pod_host::agent_for;
use escra_cluster::{Cluster, ContainerId, NodeId};
use escra_core::telemetry::{cpu_batch_wire_bytes, ToController};
use escra_core::{
    deploy_app, Action, Agent, AgentReport, AppConfig, Controller, CpuStatsEntry, Delivery,
    Envelope, EscraConfig, ToAgent,
};
use escra_metrics::trace::{NoopSink, TraceSink};
use escra_net::{Addr, BandwidthAccountant, FaultDecision, FaultInjector, FaultPlan};
use escra_simcore::events::EventQueue;
use escra_simcore::time::SimTime;
use std::collections::VecDeque;

/// Merge classes of the Controller's, every Agent's and the fault
/// injector's trace sinks: they keep unrelated seq streams from being
/// compared in a merge.
const CLASS_CONTROLLER: u16 = 0;
const CLASS_AGENT: u16 = 1;
const CLASS_FAULT: u16 = 2;

/// Well-known control-plane address of the Controller.
pub fn controller_addr() -> Addr {
    Addr::from_raw(0)
}

/// Well-known control-plane address of the Agent on `node`.
///
/// Telemetry and OOM events from a container travel over its node's
/// link, so a partition of `node_addr(n) ↔ controller_addr()` cuts off
/// everything hosted on `n`.
pub fn node_addr(node: NodeId) -> Addr {
    Addr::from_raw(1 + node.as_u64())
}

/// The Escra control plane: the Controller, one Agent per node, and the
/// simulated fabric between them, each recording into a sink of type
/// `S` (see the module docs).
pub(crate) struct ControlPlane<S: TraceSink = NoopSink> {
    pub(crate) controller: Controller<S>,
    agents: Vec<Agent>,
    /// One trace sink per Agent, in node order.
    agent_sinks: Vec<S>,
    pub(crate) wire: Wire<S>,
    /// The delivery step's buffers: empty between calls, their capacity
    /// reused so the steady-state telemetry and timer paths allocate
    /// nothing per message.
    step: Delivery,
    /// Messages one [`ControlPlane::pump`] delivers before it gives up
    /// ([`PUMP_GUARD`]; a test shrinks it to trip the guard on purpose).
    pump_guard: u32,
    /// Pumps cut short by the guard.
    pub(crate) guard_trips: u64,
}

/// The simulated fabric: every message's bytes, fault decision and
/// delay, and the queues of messages awaiting delivery.
pub(crate) struct Wire<S: TraceSink> {
    pub(crate) accountant: BandwidthAccountant,
    pub(crate) injector: FaultInjector,
    fault_sink: S,
    /// Messages hit by a delay spike, delivered once due.
    delayed: EventQueue<Envelope>,
    /// Messages ready for delivery now, in FIFO order.
    ready: VecDeque<Envelope>,
}

/// Backstop against a (non-existent today) message cycle; real cascades
/// are grant → ack → done and terminate in a few rounds. One reclaim
/// tick on 10 000 nodes delivers 20 000 messages.
const PUMP_GUARD: u32 = 100_000;

impl<S: TraceSink> ControlPlane<S> {
    /// Deploys `app` on `cluster` under a fresh Controller, with one
    /// Agent per node and a fabric faulted by `faults` (seeded from
    /// `seed`). `sink(class)` builds each component's trace sink.
    pub(crate) fn deploy(
        ecfg: &EscraConfig,
        app: &AppConfig,
        cluster: &mut Cluster,
        faults: FaultPlan,
        seed: u64,
        sink: impl Fn(u16) -> S,
    ) -> (Self, Vec<ContainerId>) {
        let mut controller = Controller::with_sink(ecfg.clone(), sink(CLASS_CONTROLLER));
        let (containers, actions) =
            deploy_app(ecfg, app, cluster, &mut controller, SimTime::ZERO).expect("deploy app");
        let mut agents: Vec<Agent> = cluster
            .nodes()
            .iter()
            .map(|nd| Agent::new(nd.id()))
            .collect();
        let mut agent_sinks: Vec<S> = agents.iter().map(|_| sink(CLASS_AGENT)).collect();
        let mut accountant = BandwidthAccountant::new();
        // Deployment registration runs over per-container TCP sockets
        // before the workload starts; runtime faults do not apply to it.
        for a in &actions {
            if let Action::Agent { node, cmd } = a {
                accountant.record(SimTime::ZERO, cmd.wire_bytes());
                let (now, sinks) = (SimTime::ZERO, &mut agent_sinks);
                apply(&mut agents, sinks, now, cluster, *node, *cmd);
            }
        }
        let plane = ControlPlane {
            controller,
            agents,
            agent_sinks,
            wire: Wire {
                accountant,
                injector: FaultInjector::new(faults, seed),
                fault_sink: sink(CLASS_FAULT),
                delayed: EventQueue::new(),
                ready: VecDeque::new(),
            },
            step: Delivery::default(),
            pump_guard: PUMP_GUARD,
            guard_trips: 0,
        };
        (plane, containers)
    }

    /// The sinks, Controller first, then the Agents in node order, then
    /// the fault injector.
    pub(crate) fn into_sinks(mut self) -> Vec<S>
    where
        S: Default,
    {
        let mut sinks = vec![self.controller.replace_sink(S::default())];
        sinks.append(&mut self.agent_sinks);
        sinks.push(self.wire.fault_sink);
        sinks
    }

    /// Sends `node`'s telemetry datagram, leaves `entries` empty and
    /// delivers until the fabric is quiescent. Returns the containers
    /// the Controller killed.
    pub(crate) fn report(
        &mut self,
        cluster: &mut Cluster,
        now: SimTime,
        node: NodeId,
        entries: &mut Vec<CpuStatsEntry>,
    ) -> Vec<ContainerId> {
        let mut killed = Vec::new();
        self.send_batch(cluster, now, node, entries, &mut killed);
        self.pump_if_due(cluster, now, &mut killed);
        killed
    }

    /// Sends `msg` from `node`'s Agent to the Controller and delivers
    /// until the fabric is quiescent. Returns the containers killed.
    pub(crate) fn send_from_node(
        &mut self,
        cluster: &mut Cluster,
        now: SimTime,
        node: NodeId,
        msg: ToController,
    ) -> Vec<ContainerId> {
        let mut killed = Vec::new();
        let env = Envelope::ToCtl(msg);
        self.wire.send(now, node_addr(node), controller_addr(), env);
        self.pump_if_due(cluster, now, &mut killed);
        killed
    }

    /// Runs the Controller's periodic reclamation loop and grant-retry
    /// timers, then delivers until the fabric is quiescent. Returns the
    /// containers killed.
    pub(crate) fn tick(&mut self, cluster: &mut Cluster, now: SimTime) -> Vec<ContainerId> {
        let mut killed = Vec::new();
        self.controller.tick_into(now, &mut self.step.actions);
        self.route(cluster, now, &mut killed);
        self.pump_if_due(cluster, now, &mut killed);
        killed
    }

    /// Sends `node`'s telemetry datagram and leaves `entries` empty.
    ///
    /// The fabric is asked exactly as [`Wire::send`] asks it. When its
    /// answer is one copy with no extra delay, and no other message is
    /// queued ahead of the datagram or falls due with it, the Controller
    /// reads the entries where they lie and the node keeps its buffer:
    /// delivering an envelope would do the same things in the same
    /// order. (A delayed message due at `now` is delivered *after* the
    /// datagram but *before* the commands it provokes, which only the
    /// envelope path gets right.) Any other answer moves the entries
    /// into an envelope.
    fn send_batch(
        &mut self,
        cluster: &mut Cluster,
        now: SimTime,
        node: NodeId,
        entries: &mut Vec<CpuStatsEntry>,
        killed: &mut Vec<ContainerId>,
    ) {
        let wire = &mut self.wire;
        wire.accountant
            .record(now, cpu_batch_wire_bytes(entries.len()));
        let decision = wire.injector.decide_traced(
            now,
            node_addr(node),
            controller_addr(),
            &mut wire.fault_sink,
        );
        if decision == FaultDecision::CLEAN && !wire.has_due(now) {
            self.controller
                .ingest_node_batch(now, node, entries, &mut self.step.actions);
            entries.clear();
            self.route(cluster, now, killed);
        } else {
            let entries = std::mem::take(entries);
            let env = Envelope::ToCtl(ToController::CpuStatsBatch { node, entries });
            wire.enqueue(now, decision, env);
        }
    }

    /// Routes the Controller's buffered actions through the delivery
    /// step: commands onto the wire, kills to `killed`. Most ingests
    /// emit nothing, and an empty buffer returns at once.
    fn route(&mut self, cluster: &mut Cluster, now: SimTime, killed: &mut Vec<ContainerId>) {
        if self.step.actions.is_empty() {
            return;
        }
        let wire = &mut self.wire;
        self.step
            .route(now, cluster, |node, cmd| wire.command(now, node, cmd));
        killed.append(&mut self.step.killed);
    }

    /// [`ControlPlane::pump`] when [`Wire::has_due`]: otherwise a pump
    /// would find nothing to deliver and return, so skipping it is
    /// exact. Most reports leave the fabric idle.
    fn pump_if_due(&mut self, cluster: &mut Cluster, now: SimTime, killed: &mut Vec<ContainerId>) {
        if self.wire.has_due(now) {
            self.pump(cluster, now, killed);
        }
    }

    /// Delivers every message due at `now` through the delivery step
    /// until the fabric is quiescent. The messages ready at the start of
    /// a round are one delivery round: the step credits all its
    /// reclamation reports in one `on_reclaim_report` call, so
    /// grant-vs-kill decisions see the whole round's reclaimed total.
    ///
    /// A pump that has delivered `pump_guard` messages stops there: the
    /// reports it has collected are still credited, the trip is counted,
    /// and what is left in the queue waits for the next pump.
    fn pump(&mut self, cluster: &mut Cluster, now: SimTime, killed: &mut Vec<ContainerId>) {
        let ControlPlane {
            controller,
            agents,
            agent_sinks,
            wire,
            step,
            pump_guard,
            guard_trips,
        } = self;
        let mut budget = *pump_guard;
        loop {
            while let Some((_, env)) = wire.delayed.pop_due(now) {
                wire.ready.push_back(env);
            }
            if wire.ready.is_empty() {
                break;
            }
            while budget > 0 {
                let Some(env) = wire.ready.pop_front() else {
                    break;
                };
                budget -= 1;
                let reply = step.deliver(
                    now,
                    env,
                    controller,
                    cluster,
                    |cluster, node, cmd| apply(agents, agent_sinks, now, cluster, node, cmd),
                    |node, cmd| wire.command(now, node, cmd),
                );
                if let Some((node, reply)) = reply {
                    wire.send(now, node_addr(node), controller_addr(), reply);
                }
                killed.append(&mut step.killed);
            }
            step.end_round(now, controller, cluster, |node, cmd| {
                wire.command(now, node, cmd)
            });
            killed.append(&mut step.killed);
            if budget == 0 && !wire.ready.is_empty() {
                *guard_trips += 1;
                return;
            }
        }
    }
}

impl<S: TraceSink> Wire<S> {
    /// Puts `env` on the wire. Bytes are charged at send time (they
    /// leave the sender even if the fabric then drops the message).
    fn send(&mut self, now: SimTime, from: Addr, to: Addr, env: Envelope) {
        self.accountant.record(now, env.wire_bytes());
        let decision = self
            .injector
            .decide_traced(now, from, to, &mut self.fault_sink);
        self.enqueue(now, decision, env);
    }

    /// Sends `cmd` from the Controller to `node`'s Agent.
    fn command(&mut self, now: SimTime, node: NodeId, cmd: ToAgent) {
        let env = Envelope::ToNode(node, cmd);
        self.send(now, controller_addr(), node_addr(node), env);
    }

    /// Queues `env` as the fabric decided: nowhere on a drop, else every
    /// copy for delivery now or once the delay spike has passed. The
    /// envelope itself is the last copy.
    fn enqueue(&mut self, now: SimTime, decision: FaultDecision, env: Envelope) {
        let FaultDecision::Deliver {
            copies,
            extra_delay,
        } = decision
        else {
            return;
        };
        let mut put = |env: Envelope| {
            if extra_delay.is_zero() {
                self.ready.push_back(env);
            } else {
                self.delayed.push(now + extra_delay, env);
            }
        };
        for _ in 1..copies {
            put(env.clone());
        }
        put(env);
    }

    /// Whether a message waits for delivery at `now`: one in `ready`, or
    /// a delayed one that has fallen due.
    fn has_due(&self, now: SimTime) -> bool {
        !self.ready.is_empty() || self.delayed.peek_time().is_some_and(|due| due <= now)
    }
}

/// `node`'s Agent applies `cmd`, tracing into the node's sink.
fn apply<S: TraceSink>(
    agents: &mut [Agent],
    sinks: &mut [S],
    now: SimTime,
    cluster: &mut Cluster,
    node: NodeId,
    cmd: ToAgent,
) -> AgentReport {
    let sink = &mut sinks[node.as_u64() as usize];
    agent_for(agents, node).apply_traced(now, cluster, cmd, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use escra_cfs::{CpuPeriodStats, MIB};
    use escra_cluster::{AppId, ContainerSpec, NodeSpec};
    use escra_core::ControllerStats;

    /// Nine containers on three 20-core nodes behind a fabric faulted by
    /// `faults`, ticked to 3 s: past the cold start, so reclaim sweeps
    /// find running containers. Returns the cluster, the plane, the
    /// containers and that instant.
    fn deployed(faults: FaultPlan) -> (Cluster, ControlPlane, Vec<ContainerId>, SimTime) {
        let node = NodeSpec {
            cores: 20,
            mem_bytes: 192 * 1024 * MIB,
        };
        let mut cluster = Cluster::new(vec![node; 3]);
        let spec = |i| ContainerSpec::new(format!("c{i}"), AppId::new(0)).with_base_mem(128 * MIB);
        let app = AppConfig {
            app: AppId::new(0),
            name: "app".into(),
            global_cpu_cores: 12.0,
            global_mem_bytes: 6 * 1024 * MIB,
            containers: (0..9).map(spec).collect(),
        };
        let ecfg = EscraConfig::default();
        let (plane, containers) =
            ControlPlane::deploy(&ecfg, &app, &mut cluster, faults, 1, |_| NoopSink);
        let now = SimTime::from_secs(3);
        cluster.tick(now);
        (cluster, plane, containers, now)
    }

    /// A reclaim sweep delayed until `now`, a node-0 datagram whose
    /// ingest emits no action, and `report` at `now`.
    fn report_with_a_sweep_due(faults: FaultPlan) -> (ControlPlane, ControllerStats) {
        let (mut cluster, mut plane, containers, now) = deployed(faults);
        let node = NodeId::new(0);
        let sweep = ToAgent::ReclaimMemory { delta_bytes: MIB };
        plane.wire.delayed.push(now, Envelope::ToNode(node, sweep));
        let cid = *containers
            .iter()
            .find(|&&c| cluster.container(c).expect("container").node() == node)
            .expect("a container on node 0");
        let quota_cores = cluster.container(cid).expect("container").cpu.quota_cores();
        // Busy, but neither throttled nor slack enough to scale down.
        let period_us = quota_cores * 100_000.0;
        let busy = CpuPeriodStats {
            quota_cores,
            unused_runtime_us: 0.05 * period_us,
            usage_us: 0.95 * period_us,
            throttled: false,
        };
        let mut entries = vec![CpuStatsEntry {
            container: cid,
            stats: busy,
        }];
        let before = plane.controller.stats();
        let killed = plane.report(&mut cluster, now, node, &mut entries);
        assert!(killed.is_empty() && entries.is_empty());
        assert!(
            plane.wire.delayed.is_empty() && plane.wire.ready.is_empty(),
            "the delayed sweep was never delivered"
        );
        (plane, before)
    }

    #[test]
    fn a_clean_report_delivers_a_delayed_message_due_now() {
        // The datagram provokes no action, yet the sweep reaches its
        // Agent and the Agent's report the Controller.
        let (plane, before) = report_with_a_sweep_due(FaultPlan::none());
        let after = plane.controller.stats();
        assert_eq!(after.cpu_stats_ingested, before.cpu_stats_ingested + 1);
        assert_eq!(
            after.quota_updates, before.quota_updates,
            "the ingest acted"
        );
        assert!(after.reclaimed_bytes > before.reclaimed_bytes);
    }

    #[test]
    fn a_lost_report_delivers_a_delayed_message_due_now() {
        // Nothing lands on `ready`: the datagram is dropped, and so is
        // the sweep's report once the sweep has been delivered.
        let (plane, before) = report_with_a_sweep_due(FaultPlan::none().with_loss(1.0));
        assert_eq!(plane.controller.stats(), before);
        assert_eq!(plane.wire.injector.stats().dropped, 2);
    }

    #[test]
    fn a_tripped_pump_guard_still_credits_the_reports_it_collected() {
        let (mut cluster, mut plane, containers, now) = deployed(FaultPlan::none());
        let nodes = plane.agents.len();
        for n in 0..nodes {
            plane.wire.ready.push_back(Envelope::ToNode(
                NodeId::new(n as u64),
                ToAgent::ReclaimMemory { delta_bytes: MIB },
            ));
        }
        // Room for every sweep and for one of the reports they answer
        // with: the guard trips holding that report's entries.
        plane.pump_guard = nodes as u32 + 1;
        let mut killed = Vec::new();
        plane.pump(&mut cluster, now, &mut killed);
        assert_eq!(plane.guard_trips, 1);
        assert_eq!(
            plane.wire.ready.len(),
            nodes - 1,
            "undelivered reports wait"
        );
        let credited = plane.controller.stats().reclaimed_bytes;
        assert!(credited > 0, "the collected report was dropped");

        plane.pump_guard = PUMP_GUARD;
        plane.pump(&mut cluster, now, &mut killed);
        assert_eq!(plane.guard_trips, 1);
        assert!(plane.wire.ready.is_empty() && killed.is_empty());
        assert!(plane.controller.stats().reclaimed_bytes > credited);
        // Every ψ the Agents shrank away is back in the pool: the
        // Controller's books match the cgroups.
        for &cid in &containers {
            let cgroup = cluster.container(cid).expect("container");
            assert_eq!(
                plane.controller.allocator().mem_limit_of(cid),
                Some(cgroup.mem.limit_bytes())
            );
        }
    }
}
