//! The delivery step: the one copy of the glue between the Controller,
//! the Agents and the cluster they act on.
//!
//! The Controller and the Agents talk only through messages (paper
//! Fig. 1). What happens when one message arrives — which end takes it,
//! what that end answers, where the Controller's actions go — is decided
//! here and nowhere else. The drivers' control plane delivers its FIFO
//! queue through [`Delivery::deliver`]; the model checker delivers the
//! in-flight message its explorer picked, one per round. Each caller
//! keeps what is its own: the order of delivery, and the wire (faults,
//! delays and byte accounting, or the checker's branching).
//!
//! Three rules:
//!
//! * **Reply** ([`reply`]). An applied `SetMemLimit` answers with a
//!   `LimitAck` carrying the same seq. An applied `SetCpuQuota` and a
//!   stale discard answer with nothing. A `ReclaimMemory` answers with a
//!   [`Envelope::Report`] of the sweep's entries.
//! * **Routing** ([`Delivery::route`]). An [`Action::Agent`] command
//!   goes on the wire; an [`Action::KillContainer`] becomes
//!   [`Cluster::oom_kill`] at once and is reported to the caller.
//! * **Rounds** ([`Delivery::end_round`]). Every report delivered in one
//!   round is credited by one `on_reclaim_report` call, so a
//!   grant-or-kill decision sees the round's whole reclaimed total. A
//!   round with a report credits it even when the sweep reclaimed
//!   nothing: the OOMs parked behind the sweep are decided then.

use crate::agent::{AgentReport, ReclaimEntry};
use crate::controller::{Action, Controller};
use crate::telemetry::{ToAgent, ToController};
use escra_cfs::CpuPeriodStats;
use escra_cluster::{Cluster, ContainerId, NodeId};
use escra_metrics::trace::TraceSink;
use escra_net::inflight::WireEncode;
use escra_simcore::time::SimTime;

/// A message in flight on the control plane.
#[derive(Debug, Clone, PartialEq)]
pub enum Envelope {
    /// Node → Controller: telemetry, OOM events, limit acks.
    ToCtl(ToController),
    /// Controller → the Agent on a node: limit commands, sweeps.
    ToNode(NodeId, ToAgent),
    /// A node's finished reclamation sweep: the response of the sweep
    /// RPC, whose bytes are priced into the request.
    Report(NodeId, Vec<ReclaimEntry>),
}

impl Envelope {
    /// Bytes the envelope puts on the wire.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Envelope::ToCtl(msg) => msg.wire_bytes(),
            Envelope::ToNode(_, cmd) => cmd.wire_bytes(),
            Envelope::Report(..) => 0,
        }
    }
}

/// The Agent reply rule: what `node`'s Agent sends back after `cmd`
/// came out as `report` (see the module docs).
pub fn reply(node: NodeId, cmd: ToAgent, report: AgentReport) -> Option<Envelope> {
    match report {
        AgentReport::Applied => match cmd {
            ToAgent::SetMemLimit { container, seq, .. } => {
                Some(Envelope::ToCtl(ToController::LimitAck { container, seq }))
            }
            ToAgent::SetCpuQuota { .. } | ToAgent::ReclaimMemory { .. } => None,
        },
        AgentReport::Stale => None,
        AgentReport::Reclaimed(entries) => Some(Envelope::Report(node, entries)),
    }
}

/// The delivery step's buffers. The caller keeps one between calls, so
/// a steady state allocates nothing, and drains `killed` after each
/// call. Every call that routes takes the caller's `send`, which puts
/// one Controller → Agent command on the wire.
#[derive(Debug, Clone, Default)]
pub struct Delivery {
    /// Controller output not yet routed. [`Delivery::deliver`] and
    /// [`Delivery::end_round`] fill it themselves; a caller that calls
    /// the Controller directly (a timer tick, a telemetry ingest)
    /// appends to it and calls [`Delivery::route`].
    pub actions: Vec<Action>,
    /// Containers the Controller had OOM-killed, in order.
    pub killed: Vec<ContainerId>,
    /// Entries of the reports delivered since the round began.
    reports: Vec<ReclaimEntry>,
    /// Whether the round has delivered a report, empty or not.
    reported: bool,
}

impl Delivery {
    /// The action-routing rule: drains `actions`, handing each Agent
    /// command to `send` in order and OOM-killing each condemned
    /// container on `cluster`, listed in `killed`.
    pub fn route(
        &mut self,
        now: SimTime,
        cluster: &mut Cluster,
        mut send: impl FnMut(NodeId, ToAgent),
    ) {
        for action in self.actions.drain(..) {
            match action {
                Action::Agent { node, cmd } => send(node, cmd),
                Action::KillContainer(container) => {
                    let _ = cluster.oom_kill(container, now);
                    self.killed.push(container);
                }
            }
        }
    }

    /// Delivers `env` at `now`. A message to the Controller is handled
    /// and its actions routed; a command is applied by `apply` (the
    /// caller's Agent for the node, tracing where the caller says) and
    /// its reply returned with the node it comes from; a report is kept
    /// for [`Delivery::end_round`].
    pub fn deliver<S: TraceSink>(
        &mut self,
        now: SimTime,
        env: Envelope,
        controller: &mut Controller<S>,
        cluster: &mut Cluster,
        apply: impl FnOnce(&mut Cluster, NodeId, ToAgent) -> AgentReport,
        send: impl FnMut(NodeId, ToAgent),
    ) -> Option<(NodeId, Envelope)> {
        match env {
            Envelope::ToCtl(msg) => {
                controller.handle_into(now, msg, &mut self.actions);
                self.route(now, cluster, send);
                None
            }
            Envelope::ToNode(node, cmd) => {
                let report = apply(cluster, node, cmd);
                reply(node, cmd, report).map(|r| (node, r))
            }
            Envelope::Report(_, entries) => {
                self.reported = true;
                self.reports.extend(entries);
                None
            }
        }
    }

    /// Ends a delivery round: when it delivered a report, credits every
    /// report of the round in one `on_reclaim_report` call and routes
    /// the Controller's answer.
    pub fn end_round<S: TraceSink>(
        &mut self,
        now: SimTime,
        controller: &mut Controller<S>,
        cluster: &mut Cluster,
        send: impl FnMut(NodeId, ToAgent),
    ) {
        if !std::mem::take(&mut self.reported) {
            return;
        }
        // The round's entries are freed with it: one reclaim tick can
        // report every node, and rounds that large are rare.
        let reports = std::mem::take(&mut self.reports);
        self.actions
            .extend(controller.on_reclaim_report(now, &reports));
        self.route(now, cluster, send);
    }
}

/// The canonical byte form the model checker's in-flight set orders and
/// hashes envelopes by: messages to the Controller sort first, then
/// commands, then reports.
impl WireEncode for Envelope {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Envelope::ToCtl(m) => {
                out.push(0);
                encode_to_ctl(m, out);
            }
            Envelope::ToNode(node, cmd) => {
                out.push(1);
                out.extend(node.as_u64().to_le_bytes());
                encode_to_agent(cmd, out);
            }
            Envelope::Report(node, entries) => {
                out.push(2);
                out.extend(node.as_u64().to_le_bytes());
                out.extend((entries.len() as u64).to_le_bytes());
                for e in entries {
                    out.extend(e.container.as_u64().to_le_bytes());
                    out.extend(e.new_limit_bytes.to_le_bytes());
                    out.extend(e.psi_bytes.to_le_bytes());
                }
            }
        }
    }
}

fn encode_to_ctl(m: &ToController, out: &mut Vec<u8>) {
    match m {
        ToController::Register {
            container,
            app,
            node,
        } => {
            out.push(0);
            out.extend(container.as_u64().to_le_bytes());
            out.extend(app.as_u64().to_le_bytes());
            out.extend(node.as_u64().to_le_bytes());
        }
        ToController::CpuStats { container, stats } => {
            out.push(1);
            out.extend(container.as_u64().to_le_bytes());
            encode_stats(stats, out);
        }
        ToController::CpuStatsBatch { node, entries } => {
            out.push(2);
            out.extend(node.as_u64().to_le_bytes());
            out.extend((entries.len() as u64).to_le_bytes());
            for e in entries {
                out.extend(e.container.as_u64().to_le_bytes());
                encode_stats(&e.stats, out);
            }
        }
        ToController::CpuStatsColumns { node, columns } => {
            out.push(5);
            out.extend(node.as_u64().to_le_bytes());
            out.extend((columns.len() as u64).to_le_bytes());
            for i in 0..columns.len() {
                out.extend((columns.container_raw[i] as u64).to_le_bytes());
                out.extend(columns.quota_mcores[i].to_le_bytes());
                out.extend(columns.unused_us[i].to_le_bytes());
                out.extend(columns.usage_us[i].to_le_bytes());
                out.push(columns.throttled_bit(i) as u8);
            }
        }
        ToController::OomEvent {
            container,
            shortfall_bytes,
            current_limit_bytes,
        } => {
            out.push(3);
            out.extend(container.as_u64().to_le_bytes());
            out.extend(shortfall_bytes.to_le_bytes());
            out.extend(current_limit_bytes.to_le_bytes());
        }
        ToController::LimitAck { container, seq } => {
            out.push(4);
            out.extend(container.as_u64().to_le_bytes());
            out.extend(seq.to_le_bytes());
        }
    }
}

fn encode_stats(s: &CpuPeriodStats, out: &mut Vec<u8>) {
    out.extend(s.quota_cores.to_bits().to_le_bytes());
    out.extend(s.unused_runtime_us.to_bits().to_le_bytes());
    out.extend(s.usage_us.to_bits().to_le_bytes());
    out.push(s.throttled as u8);
}

fn encode_to_agent(cmd: &ToAgent, out: &mut Vec<u8>) {
    match cmd {
        ToAgent::SetCpuQuota {
            container,
            quota_cores,
            seq,
        } => {
            out.push(0);
            out.extend(container.as_u64().to_le_bytes());
            out.extend(quota_cores.to_bits().to_le_bytes());
            out.extend(seq.to_le_bytes());
        }
        ToAgent::SetMemLimit {
            container,
            limit_bytes,
            seq,
        } => {
            out.push(1);
            out.extend(container.as_u64().to_le_bytes());
            out.extend(limit_bytes.to_le_bytes());
            out.extend(seq.to_le_bytes());
        }
        ToAgent::ReclaimMemory { delta_bytes } => {
            out.push(2);
            out.extend(delta_bytes.to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Agent;
    use crate::config::EscraConfig;
    use escra_cfs::MIB;
    use escra_cluster::{AppId, ContainerSpec, NodeSpec};

    const N0: NodeId = NodeId::new(0);

    /// One running container with 64 MiB in use under a 256 MiB limit,
    /// registered with a Controller, and the node's Agent.
    fn one_container() -> (Cluster, Controller, Agent, ContainerId) {
        let node = NodeSpec {
            cores: 4,
            mem_bytes: 8 << 30,
        };
        let mut cluster = Cluster::new(vec![node]);
        let spec = ContainerSpec::new("c", AppId::new(0))
            .with_mem_limit(256 * MIB)
            .with_base_mem(64 * MIB);
        let cid = cluster.deploy(spec, SimTime::ZERO).expect("deploy");
        cluster.tick(SimTime::from_secs(3));
        let mut controller = Controller::new(EscraConfig::default());
        controller.register_app(AppId::new(0), 4.0, 1 << 30);
        controller
            .register_container(cid, AppId::new(0), N0, 1.0, 256 * MIB)
            .expect("register");
        (cluster, controller, Agent::new(N0), cid)
    }

    /// Delivers `cmd` to the Agent through the step; returns the reply.
    fn deliver_cmd(
        step: &mut Delivery,
        cluster: &mut Cluster,
        controller: &mut Controller,
        agent: &mut Agent,
        cmd: ToAgent,
    ) -> Option<(NodeId, Envelope)> {
        let env = Envelope::ToNode(N0, cmd);
        step.deliver(
            SimTime::from_secs(3),
            env,
            controller,
            cluster,
            |cl, _, cmd| agent.apply(cl, cmd),
            |_, _| unreachable!("a command reaches no Controller"),
        )
    }

    #[test]
    fn an_applied_mem_limit_is_acked_with_its_seq() {
        let (mut cluster, mut controller, mut agent, cid) = one_container();
        let mut step = Delivery::default();
        let cmd = ToAgent::SetMemLimit {
            container: cid,
            limit_bytes: 300 * MIB,
            seq: 7,
        };
        let got = deliver_cmd(&mut step, &mut cluster, &mut controller, &mut agent, cmd);
        let ack = Envelope::ToCtl(ToController::LimitAck {
            container: cid,
            seq: 7,
        });
        assert_eq!(got, Some((N0, ack)));
        assert_eq!(cluster.container(cid).unwrap().mem.limit_bytes(), 300 * MIB);
        assert!(step.killed.is_empty());
    }

    #[test]
    fn an_applied_cpu_quota_is_not_acked() {
        let (mut cluster, mut controller, mut agent, cid) = one_container();
        let mut step = Delivery::default();
        let cmd = ToAgent::SetCpuQuota {
            container: cid,
            quota_cores: 2.0,
            seq: 7,
        };
        let got = deliver_cmd(&mut step, &mut cluster, &mut controller, &mut agent, cmd);
        assert_eq!(got, None);
        assert_eq!(cluster.container(cid).unwrap().cpu.quota_cores(), 2.0);
        assert_eq!(reply(N0, cmd, AgentReport::Applied), None);
    }

    #[test]
    fn a_stale_command_is_not_answered() {
        let (mut cluster, mut controller, mut agent, cid) = one_container();
        let mut step = Delivery::default();
        let mem = |seq| ToAgent::SetMemLimit {
            container: cid,
            limit_bytes: 300 * MIB,
            seq,
        };
        assert!(
            deliver_cmd(&mut step, &mut cluster, &mut controller, &mut agent, mem(7)).is_some()
        );
        let stale = deliver_cmd(&mut step, &mut cluster, &mut controller, &mut agent, mem(7));
        assert_eq!(stale, None);
        assert_eq!(agent.stale_discarded(), 1);
        assert_eq!(reply(N0, mem(5), AgentReport::Stale), None);
    }

    #[test]
    fn a_sweep_answers_with_a_report_of_its_node_and_entries() {
        let (mut cluster, mut controller, mut agent, cid) = one_container();
        let mut step = Delivery::default();
        let cmd = ToAgent::ReclaimMemory { delta_bytes: MIB };
        let got = deliver_cmd(&mut step, &mut cluster, &mut controller, &mut agent, cmd);
        let entry = ReclaimEntry {
            container: cid,
            new_limit_bytes: 65 * MIB,
            psi_bytes: 191 * MIB,
        };
        assert_eq!(got, Some((N0, Envelope::Report(N0, vec![entry]))));
        // The report is credited when its round ends, not on delivery.
        let (_, report) = got.unwrap();
        let now = SimTime::from_secs(3);
        let nowhere = |_: NodeId, _: ToAgent| unreachable!("nothing to send");
        step.deliver(
            now,
            report,
            &mut controller,
            &mut cluster,
            |_, _, _| unreachable!("a report reaches no Agent"),
            nowhere,
        );
        assert_eq!(controller.stats().reclaimed_bytes, 0);
        step.end_round(now, &mut controller, &mut cluster, nowhere);
        assert_eq!(controller.stats().reclaimed_bytes, 191 * MIB);
    }

    #[test]
    fn a_kill_goes_to_the_cluster_and_the_caller_not_the_wire() {
        let (mut cluster, _, _, cid) = one_container();
        let mut step = Delivery::default();
        let sweep = ToAgent::ReclaimMemory { delta_bytes: MIB };
        step.actions.push(Action::KillContainer(cid));
        step.actions.push(Action::Agent {
            node: N0,
            cmd: sweep,
        });
        let mut wire = Vec::new();
        step.route(SimTime::from_secs(3), &mut cluster, |node, cmd| {
            wire.push((node, cmd))
        });
        assert!(step.actions.is_empty());
        assert_eq!(step.killed, vec![cid]);
        assert_eq!(wire, vec![(N0, sweep)]);
        assert!(!cluster.container(cid).unwrap().is_running());
    }
}
