//! The per-node Escra Agent (paper Fig. 1, ⑤).
//!
//! Like the kubelet, one Agent runs on every worker node. It applies
//! resource updates sent by the Controller — dynamically, without
//! container restarts — and executes the memory-reclamation sweep,
//! reporting reclaimed bytes ψ per container.

use crate::telemetry::ToAgent;
use escra_cluster::{Cluster, ContainerId, NodeId};
use escra_metrics::fingerprint::StateHash;
use escra_metrics::trace::{NoopSink, TraceEventKind, TraceSink};
use escra_simcore::time::SimTime;
use serde::Serialize;

/// Result of one reclamation sweep entry: the container's limit after the
/// shrink and the bytes reclaimed (ψ).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ReclaimEntry {
    /// The container that was shrunk.
    pub container: ContainerId,
    /// Its new memory limit.
    pub new_limit_bytes: u64,
    /// Bytes reclaimed from it (ψ).
    pub psi_bytes: u64,
}

/// Outcome of applying a Controller command on the node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AgentReport {
    /// A limit update was applied (or ignored for an unknown/dead container).
    Applied,
    /// The command's sequence number did not advance past the last one
    /// applied for that container — a duplicated or reordered delivery
    /// — so it was discarded.
    Stale,
    /// A reclamation sweep finished with these per-container results.
    Reclaimed(Vec<ReclaimEntry>),
}

/// The per-node agent process.
///
/// The agent owns no containers, only a node identity, and manipulates
/// cgroups through the cluster — mirroring how the real agent issues the
/// custom syscalls on its host. It does keep one piece of state per
/// container: the highest command sequence number applied so far, so
/// that a faulty network delivering commands late, twice, or out of
/// order can never roll a limit back to an older value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Agent {
    node: NodeId,
    /// High-water seqs, sorted by container id. A node hosts a handful
    /// of containers, so one small vector is a fraction of the two B-tree
    /// leaves it replaces; every entry has at least one seq recorded.
    seqs: Vec<SeqEntry>,
    stale_discarded: u64,
    valve_clamps: u64,
}

/// The highest command seq applied to one container, per resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SeqEntry {
    container: ContainerId,
    cpu: Option<u64>,
    mem: Option<u64>,
}

/// Which of a container's two seq spaces a command belongs to.
#[derive(Debug, Clone, Copy)]
enum Resource {
    Cpu,
    Mem,
}

impl Agent {
    /// Creates the agent for `node`.
    pub fn new(node: NodeId) -> Self {
        Agent {
            node,
            seqs: Vec::new(),
            stale_discarded: 0,
            valve_clamps: 0,
        }
    }

    /// The node this agent manages.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of commands discarded as stale (duplicate or reordered).
    pub fn stale_discarded(&self) -> u64 {
        self.stale_discarded
    }

    /// Number of memory-limit updates clamped up by the safety valve.
    pub fn valve_clamps(&self) -> u64 {
        self.valve_clamps
    }

    /// Records `seq` as `container`'s high-water mark for `resource`.
    /// Returns false, recording nothing, when `seq` is not newer than
    /// the last one applied.
    fn advance(&mut self, container: ContainerId, seq: u64, resource: Resource) -> bool {
        let at = match self.seqs.binary_search_by_key(&container, |e| e.container) {
            Ok(at) => at,
            Err(at) => {
                // Most nodes host one or two containers: grow by one
                // entry up to `Vec`'s minimum capacity of four, then
                // amortised as usual.
                if self.seqs.len() < 4 {
                    self.seqs.reserve_exact(1);
                }
                self.seqs.insert(
                    at,
                    SeqEntry {
                        container,
                        cpu: None,
                        mem: None,
                    },
                );
                at
            }
        };
        let last = match resource {
            Resource::Cpu => &mut self.seqs[at].cpu,
            Resource::Mem => &mut self.seqs[at].mem,
        };
        if last.is_some_and(|last| seq <= last) {
            return false;
        }
        *last = Some(seq);
        true
    }

    /// Drops all per-container state (the high-water seq entries) for a
    /// torn-down container.
    ///
    /// Must be called when a container is terminated: a later container
    /// reusing the same `ContainerId` — e.g. registered by a different
    /// controller shard whose `next_seq` space starts over — would
    /// otherwise inherit the old high-water mark and have every command
    /// silently stale-discarded until the new seq space catches up. It
    /// also keeps the table from growing without bound under serverless
    /// churn.
    pub fn forget_container(&mut self, container: ContainerId) {
        if let Ok(at) = self.seqs.binary_search_by_key(&container, |e| e.container) {
            self.seqs.remove(at);
        }
    }

    /// Number of containers with a recorded high-water seq (either
    /// resource); teardown bookkeeping should drive this back down.
    pub fn tracked_containers(&self) -> usize {
        self.seqs.len()
    }

    /// Feeds the agent's behaviourally relevant state (node id and both
    /// seq spaces; the audit counters never influence decisions) into a
    /// canonical state hash, for the model checker's visited set: the
    /// CPU seqs as a counted `(container, seq)` list in container order,
    /// then the memory seqs likewise.
    pub fn fingerprint_into(&self, h: &mut StateHash) {
        h.write_u64(self.node.as_u64());
        for pick in [|e: &SeqEntry| e.cpu, |e: &SeqEntry| e.mem] {
            h.write_u64(self.seqs.iter().filter_map(pick).count() as u64);
            for e in &self.seqs {
                if let Some(seq) = pick(e) {
                    h.write_u64(e.container.as_u64());
                    h.write_u64(seq);
                }
            }
        }
    }

    /// Applies a Controller command to this node's containers.
    ///
    /// Commands addressed to containers that no longer exist are ignored
    /// (they may have been terminated while the RPC was in flight).
    ///
    /// Untraced compatibility wrapper over [`Agent::apply_traced`];
    /// trace events are discarded.
    pub fn apply(&mut self, cluster: &mut Cluster, cmd: ToAgent) -> AgentReport {
        self.apply_traced(SimTime::ZERO, cluster, cmd, &mut NoopSink)
    }

    /// [`Agent::apply`] with a [`TraceSink`]: stale discards, safety
    /// valve clamps and per-container reclaim shrinks are recorded,
    /// stamped at `now`. The Agent does not own the sink (it stays
    /// `Clone + Eq` state), so the driver passes one in per call.
    pub fn apply_traced<S: TraceSink>(
        &mut self,
        now: SimTime,
        cluster: &mut Cluster,
        cmd: ToAgent,
        sink: &mut S,
    ) -> AgentReport {
        let (container, seq, resource) = match cmd {
            ToAgent::SetCpuQuota { container, seq, .. } => (container, seq, Resource::Cpu),
            ToAgent::SetMemLimit { container, seq, .. } => (container, seq, Resource::Mem),
            ToAgent::ReclaimMemory { delta_bytes } => {
                return AgentReport::Reclaimed(self.reclaim_sweep_traced(
                    now,
                    cluster,
                    delta_bytes,
                    sink,
                ));
            }
        };
        if !self.advance(container, seq, resource) {
            self.stale_discarded += 1;
            if S::ENABLED {
                sink.emit(
                    now,
                    TraceEventKind::AgentStaleDrop {
                        container: container.as_u64(),
                    },
                );
            }
            return AgentReport::Stale;
        }
        let Some(c) = cluster
            .container_mut(container)
            .filter(|c| c.node() == self.node)
        else {
            return AgentReport::Applied;
        };
        match cmd {
            ToAgent::SetCpuQuota { quota_cores, .. } => c.cpu.set_quota_cores(quota_cores),
            ToAgent::SetMemLimit { limit_bytes, .. } => {
                // Safety valve: when the Controller is cut off it may act
                // on a stale picture and ask for a limit below what the
                // container already uses. Applying that verbatim would
                // OOM-kill on the spot, so the agent never shrinks below
                // live usage — the next reconciliation re-synchronises
                // the books.
                let usage = c.mem.usage_bytes();
                if limit_bytes < usage {
                    self.valve_clamps += 1;
                    if S::ENABLED {
                        sink.emit(
                            now,
                            TraceEventKind::AgentValveClamp {
                                container: container.as_u64(),
                                limit_bytes,
                                usage_bytes: usage,
                            },
                        );
                    }
                }
                c.mem.set_limit_bytes(limit_bytes.max(usage).max(1));
            }
            ToAgent::ReclaimMemory { .. } => unreachable!("answered before the seq check"),
        }
        AgentReport::Applied
    }

    /// The reclamation sweep (paper §IV-C): for every container `C(i)` on
    /// this node with `limit > usage + δ`, shrink the limit to
    /// `usage + δ` and record ψ.
    pub fn reclaim_sweep(&self, cluster: &mut Cluster, delta_bytes: u64) -> Vec<ReclaimEntry> {
        self.reclaim_sweep_traced(SimTime::ZERO, cluster, delta_bytes, &mut NoopSink)
    }

    /// [`Agent::reclaim_sweep`] with a [`TraceSink`]: one
    /// [`TraceEventKind::ReclaimShrink`] per container shrunk.
    pub fn reclaim_sweep_traced<S: TraceSink>(
        &self,
        now: SimTime,
        cluster: &mut Cluster,
        delta_bytes: u64,
        sink: &mut S,
    ) -> Vec<ReclaimEntry> {
        let mut out = Vec::new();
        cluster.for_each_running_on(self.node, |id, c| {
            let usage = c.mem.usage_bytes();
            let limit = c.mem.limit_bytes();
            if limit > usage + delta_bytes {
                let psi = c.mem.shrink_to(usage + delta_bytes);
                if psi > 0 {
                    if S::ENABLED {
                        sink.emit(
                            now,
                            TraceEventKind::ReclaimShrink {
                                container: id.as_u64(),
                                new_limit_bytes: c.mem.limit_bytes(),
                                psi_bytes: psi,
                            },
                        );
                    }
                    out.push(ReclaimEntry {
                        container: id,
                        new_limit_bytes: c.mem.limit_bytes(),
                        psi_bytes: psi,
                    });
                }
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use escra_cfs::MIB;
    use escra_cluster::{AppId, ContainerSpec, NodeSpec};
    use escra_simcore::time::SimTime;

    fn cluster_with_two() -> (Cluster, ContainerId, ContainerId) {
        let mut cl = Cluster::new(vec![NodeSpec {
            cores: 8,
            mem_bytes: 16 << 30,
        }]);
        let spec = |n: &str| {
            ContainerSpec::new(n, AppId::new(0))
                .with_mem_limit(256 * MIB)
                .with_base_mem(64 * MIB)
        };
        let a = cl.deploy(spec("a"), SimTime::ZERO).unwrap();
        let b = cl.deploy(spec("b"), SimTime::ZERO).unwrap();
        cl.tick(SimTime::from_secs(3));
        (cl, a, b)
    }

    #[test]
    fn sets_cpu_quota_without_restart() {
        let (mut cl, a, _) = cluster_with_two();
        let mut agent = Agent::new(NodeId::new(0));
        let report = agent.apply(
            &mut cl,
            ToAgent::SetCpuQuota {
                container: a,
                quota_cores: 3.5,
                seq: 1,
            },
        );
        assert_eq!(report, AgentReport::Applied);
        assert_eq!(cl.container(a).unwrap().cpu.quota_cores(), 3.5);
        assert!(cl.container(a).unwrap().is_running()); // no restart
    }

    #[test]
    fn ignores_other_nodes_containers() {
        let mut cl = Cluster::new(vec![
            NodeSpec {
                cores: 4,
                mem_bytes: 8 << 30,
            },
            NodeSpec {
                cores: 4,
                mem_bytes: 8 << 30,
            },
        ]);
        let a = cl
            .deploy(ContainerSpec::new("a", AppId::new(0)), SimTime::ZERO)
            .unwrap(); // node 0
        let mut wrong_agent = Agent::new(NodeId::new(1));
        wrong_agent.apply(
            &mut cl,
            ToAgent::SetCpuQuota {
                container: a,
                quota_cores: 9.0,
                seq: 1,
            },
        );
        assert_eq!(cl.container(a).unwrap().cpu.quota_cores(), 1.0);
    }

    #[test]
    fn reclaim_sweep_honours_delta() {
        let (mut cl, a, b) = cluster_with_two();
        // a: usage 64 MiB, limit 256 -> shrink to 64+50=114, ψ=142.
        // b: bump usage to 240 -> 240+50 > 256, untouched.
        cl.container_mut(b).unwrap().mem.try_charge(176 * MIB);
        let mut agent = Agent::new(NodeId::new(0));
        let report = agent.apply(
            &mut cl,
            ToAgent::ReclaimMemory {
                delta_bytes: 50 * MIB,
            },
        );
        match report {
            AgentReport::Reclaimed(entries) => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].container, a);
                assert_eq!(entries[0].new_limit_bytes, 114 * MIB);
                assert_eq!(entries[0].psi_bytes, 142 * MIB);
            }
            other => panic!("expected reclaim report, got {other:?}"),
        }
        assert_eq!(cl.container(b).unwrap().mem.limit_bytes(), 256 * MIB);
    }

    #[test]
    fn reclaim_skips_starting_containers() {
        let mut cl = Cluster::new(vec![NodeSpec {
            cores: 4,
            mem_bytes: 8 << 30,
        }]);
        let _a = cl
            .deploy(ContainerSpec::new("a", AppId::new(0)), SimTime::ZERO)
            .unwrap();
        // No tick: container still cold-starting.
        let agent = Agent::new(NodeId::new(0));
        let entries = agent.reclaim_sweep(&mut cl, 0);
        assert!(entries.is_empty());
    }

    #[test]
    fn unknown_container_update_is_ignored() {
        let (mut cl, _, _) = cluster_with_two();
        let mut agent = Agent::new(NodeId::new(0));
        let report = agent.apply(
            &mut cl,
            ToAgent::SetMemLimit {
                container: ContainerId::new(999),
                limit_bytes: MIB,
                seq: 1,
            },
        );
        assert_eq!(report, AgentReport::Applied);
    }

    #[test]
    fn stale_and_duplicate_commands_are_discarded() {
        let (mut cl, a, _) = cluster_with_two();
        let mut agent = Agent::new(NodeId::new(0));
        let quota = |q: f64, seq: u64| ToAgent::SetCpuQuota {
            container: a,
            quota_cores: q,
            seq,
        };
        assert_eq!(agent.apply(&mut cl, quota(4.0, 2)), AgentReport::Applied);
        // A reordered older command must not roll the quota back...
        assert_eq!(agent.apply(&mut cl, quota(1.0, 1)), AgentReport::Stale);
        // ...nor may a duplicated delivery of the same command reapply.
        assert_eq!(agent.apply(&mut cl, quota(4.0, 2)), AgentReport::Stale);
        assert_eq!(cl.container(a).unwrap().cpu.quota_cores(), 4.0);
        assert_eq!(agent.stale_discarded(), 2);
        // A genuinely newer command still applies.
        assert_eq!(agent.apply(&mut cl, quota(2.0, 3)), AgentReport::Applied);
        assert_eq!(cl.container(a).unwrap().cpu.quota_cores(), 2.0);
    }

    #[test]
    fn seq_spaces_are_per_container_and_per_resource() {
        let (mut cl, a, b) = cluster_with_two();
        let mut agent = Agent::new(NodeId::new(0));
        let cmd = ToAgent::SetCpuQuota {
            container: a,
            quota_cores: 4.0,
            seq: 5,
        };
        assert_eq!(agent.apply(&mut cl, cmd), AgentReport::Applied);
        // Same seq for a *different container* is fine...
        let cmd = ToAgent::SetCpuQuota {
            container: b,
            quota_cores: 3.0,
            seq: 5,
        };
        assert_eq!(agent.apply(&mut cl, cmd), AgentReport::Applied);
        // ...and so is a lower seq for a different *resource* of `a`.
        let cmd = ToAgent::SetMemLimit {
            container: a,
            limit_bytes: 300 * MIB,
            seq: 2,
        };
        assert_eq!(agent.apply(&mut cl, cmd), AgentReport::Applied);
    }

    /// Regression: a reused `ContainerId` must not inherit the previous
    /// tenant's high-water seq. Before `forget_container` existed, the
    /// agent kept the old entries forever, so a fresh controller shard
    /// starting its seq space at 1 had every command stale-discarded
    /// until `next_seq` overtook the stale mark.
    #[test]
    fn container_id_reuse_starts_a_fresh_seq_space() {
        let (mut cl, a, _) = cluster_with_two();
        let mut agent = Agent::new(NodeId::new(0));
        // First tenant of id `a` ends its life at a high seq.
        let cmd = |q: f64, seq: u64| ToAgent::SetCpuQuota {
            container: a,
            quota_cores: q,
            seq,
        };
        assert_eq!(agent.apply(&mut cl, cmd(4.0, 100)), AgentReport::Applied);
        assert_eq!(
            agent.apply(
                &mut cl,
                ToAgent::SetMemLimit {
                    container: a,
                    limit_bytes: 300 * MIB,
                    seq: 101,
                }
            ),
            AgentReport::Applied
        );
        assert_eq!(agent.tracked_containers(), 1);

        // Teardown: the driver terminates the container and tells the
        // agent to drop its per-container state.
        let _ = cl.terminate(a, SimTime::from_secs(5));
        agent.forget_container(a);
        assert_eq!(agent.tracked_containers(), 0);

        // A new tenant reuses id `a` under a controller whose seq space
        // starts over (e.g. a different shard). Without the forget, seq 1
        // and 2 would be "stale" against the dead tenant's 100/101.
        let b = cl
            .deploy(
                ContainerSpec::new("a2", AppId::new(1)).with_base_mem(64 * MIB),
                SimTime::from_secs(6),
            )
            .unwrap();
        cl.tick(SimTime::from_secs(9));
        let reuse = ContainerId::new(a.as_u64()); // same raw id semantics
        assert_eq!(
            agent.apply(
                &mut cl,
                ToAgent::SetCpuQuota {
                    container: reuse,
                    quota_cores: 2.0,
                    seq: 1,
                }
            ),
            AgentReport::Applied,
            "fresh tenant's first command must not be stale-discarded"
        );
        assert_eq!(
            agent.apply(
                &mut cl,
                ToAgent::SetMemLimit {
                    container: reuse,
                    limit_bytes: 128 * MIB,
                    seq: 2,
                }
            ),
            AgentReport::Applied
        );
        assert_eq!(agent.stale_discarded(), 0);
        let _ = b;
    }

    #[test]
    fn safety_valve_never_shrinks_below_live_usage() {
        let (mut cl, a, _) = cluster_with_two();
        // Usage is 64 MiB; a cut-off Controller asks for a 32 MiB limit.
        let mut agent = Agent::new(NodeId::new(0));
        let report = agent.apply(
            &mut cl,
            ToAgent::SetMemLimit {
                container: a,
                limit_bytes: 32 * MIB,
                seq: 1,
            },
        );
        assert_eq!(report, AgentReport::Applied);
        let c = cl.container(a).unwrap();
        assert_eq!(c.mem.limit_bytes(), c.mem.usage_bytes());
        assert!(c.is_running(), "valve must prevent the instant OOM kill");
        assert_eq!(agent.valve_clamps(), 1);
    }
}
