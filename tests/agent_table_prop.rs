//! Differential property test of the Agent's high-water seq table.
//!
//! `Agent` keeps the last applied command seq per container and resource
//! in one small vector sorted by container id. It replaced two
//! `BTreeMap<ContainerId, u64>` (CPU seqs, memory seqs); the model below
//! *is* that old layout, fingerprint included, and the Agent must stay
//! indistinguishable from it through the public API: the model checker's
//! pinned state counts hang on `fingerprint_into` not moving by a bit.

use escra::cluster::{AppId, Cluster, ContainerId, ContainerSpec, NodeId, NodeSpec};
use escra::core::{Agent, AgentReport, ToAgent};
use escra::metrics::fingerprint::StateHash;
use escra::simcore::time::SimTime;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Container ids the commands name; the cluster hosts only the first
/// few, so commands for containers the node has never seen (their seqs
/// are recorded all the same) are exercised too.
const IDS: u64 = 7;
const NODE: NodeId = NodeId::new(0);

/// The two-map Agent state this table replaced.
#[derive(Default)]
struct TwoMaps {
    cpu_seq: BTreeMap<ContainerId, u64>,
    mem_seq: BTreeMap<ContainerId, u64>,
    stale_discarded: u64,
}

impl TwoMaps {
    /// The old `is_stale` + `insert` pair: true when `seq` was applied.
    fn advance(map: &mut BTreeMap<ContainerId, u64>, container: ContainerId, seq: u64) -> bool {
        if map.get(&container).is_some_and(|&last| seq <= last) {
            return false;
        }
        map.insert(container, seq);
        true
    }

    fn tracked_containers(&self) -> usize {
        let ids: BTreeSet<_> = self.cpu_seq.keys().chain(self.mem_seq.keys()).collect();
        ids.len()
    }

    /// The old `Agent::fingerprint_into`, verbatim.
    fn fingerprint(&self) -> u64 {
        let mut h = StateHash::new();
        h.write_u64(NODE.as_u64());
        for map in [&self.cpu_seq, &self.mem_seq] {
            h.write_u64(map.len() as u64);
            for (c, s) in map {
                h.write_u64(c.as_u64());
                h.write_u64(*s);
            }
        }
        h.finish()
    }
}

fn cluster() -> Cluster {
    let mut cl = Cluster::new(vec![NodeSpec {
        cores: 8,
        mem_bytes: 16 << 30,
    }]);
    for i in 0..4 {
        cl.deploy(
            ContainerSpec::new(format!("c{i}"), AppId::new(0)),
            SimTime::ZERO,
        )
        .expect("deploy");
    }
    cl.tick(SimTime::from_secs(3));
    cl
}

proptest! {
    /// Random `apply` / `forget_container` sequences: the same
    /// `AgentReport`s, `tracked_containers`, `stale_discarded` and state
    /// hash as the two-map layout after every step.
    #[test]
    fn agent_seq_table_matches_the_two_map_model(
        ops in proptest::collection::vec((0u8..5, 0u64..IDS, 0u64..6), 1..120),
    ) {
        let mut cl = cluster();
        let mut agent = Agent::new(NODE);
        let mut model = TwoMaps::default();
        for (op, raw, seq) in ops {
            let container = ContainerId::new(raw);
            // `Some(applied)` for a limit command, by the model's verdict.
            let (cmd, applied) = match op {
                0 | 1 => (
                    ToAgent::SetCpuQuota { container, quota_cores: 1.0 + seq as f64, seq },
                    Some(TwoMaps::advance(&mut model.cpu_seq, container, seq)),
                ),
                2 => (
                    ToAgent::SetMemLimit { container, limit_bytes: (64 + seq) << 20, seq },
                    Some(TwoMaps::advance(&mut model.mem_seq, container, seq)),
                ),
                // A sweep never touches the seq table.
                3 => (ToAgent::ReclaimMemory { delta_bytes: raw << 20 }, None),
                // Forget, then a sweep too tight to shrink anything, so
                // that every step ends in an `apply`.
                _ => {
                    agent.forget_container(container);
                    model.cpu_seq.remove(&container);
                    model.mem_seq.remove(&container);
                    (ToAgent::ReclaimMemory { delta_bytes: u64::MAX >> 1 }, None)
                }
            };
            let report = agent.apply(&mut cl, cmd);
            match applied {
                Some(true) => prop_assert_eq!(report, AgentReport::Applied),
                Some(false) => {
                    model.stale_discarded += 1;
                    prop_assert_eq!(report, AgentReport::Stale);
                }
                None => prop_assert!(matches!(report, AgentReport::Reclaimed(_))),
            }

            prop_assert_eq!(agent.tracked_containers(), model.tracked_containers());
            prop_assert_eq!(agent.stale_discarded(), model.stale_discarded);
            let mut h = StateHash::new();
            agent.fingerprint_into(&mut h);
            prop_assert_eq!(h.finish(), model.fingerprint());
        }
    }
}
