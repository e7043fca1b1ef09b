//! Cluster-slab property test: churn `Cluster`'s container store
//! (deploy / tick / oom_kill / restart / terminate, plus lookups of
//! live, terminated and never-issued ids) against a naive `BTreeMap`
//! model and hold every public view to the model.
//!
//! `Cluster` keeps its containers in a slab indexed by the raw id (ids
//! are issued densely by `deploy`) and promotes cold starts from a
//! pending-start list instead of walking every container. Both are
//! invisible through the public API — which is exactly why the model
//! test exists: an indexing or list-bookkeeping bug shows up as a wrong
//! `container()` answer, a missing or misordered `Restarted` event or a
//! pod that never starts, never as a crash.

use escra::cluster::{
    AppId, Cluster, ClusterError, ContainerEvent, ContainerId, ContainerSpec, ContainerState,
    NodeId, NodeSpec, Placement,
};
use escra::simcore::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

const NODES: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq)]
struct ModelContainer {
    node: NodeId,
    state: ContainerState,
    restart_delay: SimDuration,
    oom_kills: u64,
    restarts: u64,
}

/// The map-backed store `Cluster` used to be: every rule spelled out
/// over a `BTreeMap`, `tick` walking all of it.
#[derive(Debug, Default)]
struct Model {
    containers: BTreeMap<ContainerId, ModelContainer>,
    placed: [Vec<ContainerId>; NODES],
    rr_cursor: usize,
    events: Vec<(SimTime, ContainerEvent)>,
    total_oom_kills: u64,
}

impl Model {
    fn deploy(&mut self, least_loaded: bool, restart_delay: SimDuration, now: SimTime) {
        let node = if least_loaded {
            (0..NODES)
                .min_by_key(|&n| self.placed[n].len())
                .expect("nodes")
        } else {
            self.rr_cursor += 1;
            (self.rr_cursor - 1) % NODES
        };
        let id = ContainerId::new(self.containers.len() as u64);
        self.placed[node].push(id);
        self.containers.insert(
            id,
            ModelContainer {
                node: NodeId::new(node as u64),
                state: ContainerState::Starting {
                    ready_at: now + restart_delay,
                },
                restart_delay,
                oom_kills: 0,
                restarts: 0,
            },
        );
        self.events
            .push((now, ContainerEvent::Created(id, NodeId::new(node as u64))));
    }

    fn restart(&mut self, id: ContainerId, now: SimTime, oom: bool) -> Result<(), ClusterError> {
        let c = self
            .containers
            .get_mut(&id)
            .ok_or(ClusterError::UnknownContainer(id))?;
        c.restarts += 1;
        c.state = ContainerState::Starting {
            ready_at: now + c.restart_delay,
        };
        if oom {
            c.oom_kills += 1;
            self.total_oom_kills += 1;
            self.events.push((now, ContainerEvent::OomKilled(id)));
        }
        Ok(())
    }

    fn terminate(&mut self, id: ContainerId, now: SimTime) -> Result<(), ClusterError> {
        let c = self
            .containers
            .get_mut(&id)
            .ok_or(ClusterError::UnknownContainer(id))?;
        c.state = ContainerState::Terminated;
        self.placed[c.node.as_u64() as usize].retain(|x| *x != id);
        self.events.push((now, ContainerEvent::Terminated(id)));
        Ok(())
    }

    fn tick(&mut self, now: SimTime) {
        for (id, c) in self.containers.iter_mut() {
            if matches!(c.state, ContainerState::Starting { ready_at } if now >= ready_at) {
                c.state = ContainerState::Running;
                self.events.push((now, ContainerEvent::Restarted(*id)));
            }
        }
    }
}

/// Ids worth asking about: every issued one, the first few never-issued
/// ones, and the far end of the id space.
fn probe_ids(issued: usize) -> impl Iterator<Item = ContainerId> {
    (0..issued as u64 + 3)
        .chain([u32::MAX as u64, u32::MAX as u64 + 1, u64::MAX - 1, u64::MAX])
        .map(ContainerId::new)
}

/// Every public view must agree with the model after every operation.
fn assert_matches_model(cluster: &mut Cluster, model: &Model) {
    assert_eq!(cluster.container_count(), model.containers.len());
    assert_eq!(cluster.total_oom_kills(), model.total_oom_kills);
    for id in probe_ids(model.containers.len()) {
        let seen = cluster
            .container(id)
            .map(|c| (c.id(), c.node(), c.state(), c.oom_kills(), c.restarts()));
        let want = model
            .containers
            .get(&id)
            .map(|m| (id, m.node, m.state, m.oom_kills, m.restarts));
        assert_eq!(seen, want, "container({id})");
        assert_eq!(
            cluster.container_mut(id).map(|c| c.id()),
            want.map(|w| w.0),
            "container_mut({id})"
        );
    }
    let order: Vec<ContainerId> = cluster.containers().map(|c| c.id()).collect();
    let want: Vec<ContainerId> = model.containers.keys().copied().collect();
    assert_eq!(order, want, "containers() is in id order");
    let order_mut: Vec<ContainerId> = cluster.containers_mut().map(|c| c.id()).collect();
    assert_eq!(order_mut, want, "containers_mut() is in id order");
    for n in 0..NODES {
        let running: Vec<ContainerId> = model.placed[n]
            .iter()
            .copied()
            .filter(|id| model.containers[id].state == ContainerState::Running)
            .collect();
        assert_eq!(cluster.running_on(NodeId::new(n as u64)), running);
    }
    assert!(cluster.running_on(NodeId::new(NODES as u64)).is_empty());
}

proptest! {
    /// Arbitrary lifecycle churn stays view-identical to the `BTreeMap`
    /// model, event for event.
    #[test]
    fn cluster_slab_matches_btreemap_model(
        least_loaded in any::<bool>(),
        ops in proptest::collection::vec(
            (0u8..12, any::<u64>(), 0u64..4, 0u64..250),
            1..220,
        ),
    ) {
        let spec = NodeSpec { cores: 4, mem_bytes: 8 << 30 };
        let mut cluster = Cluster::new(vec![spec; NODES]).with_placement(if least_loaded {
            Placement::LeastLoaded
        } else {
            Placement::RoundRobin
        });
        let mut model = Model::default();
        let mut now = SimTime::ZERO;

        for (op, pick, delay, dt_ms) in ops {
            now += SimDuration::from_millis(dt_ms);
            // Mostly issued ids (live or terminated), some just past the
            // end, some at the far end of the id space.
            let issued = model.containers.len() as u64;
            let id = ContainerId::new(match pick % 8 {
                0 => issued + pick % 3,
                1 => u64::MAX - pick % 2,
                _ => pick % issued.max(1),
            });
            match op {
                // Several pods with equal and unequal cold-start delays
                // become ready in one tick: `Restarted` order is id order.
                0..=3 => {
                    let restart_delay = SimDuration::from_millis(100 * delay);
                    let s = ContainerSpec::new("p", AppId::new(0)).with_restart_delay(restart_delay);
                    let got = cluster.deploy(s, now).expect("cluster has nodes");
                    prop_assert_eq!(got, ContainerId::new(issued));
                    model.deploy(least_loaded, restart_delay, now);
                }
                4..=6 => {
                    cluster.tick(now);
                    model.tick(now);
                }
                7 => prop_assert_eq!(cluster.oom_kill(id, now), model.restart(id, now, true)),
                8 => prop_assert_eq!(cluster.restart(id, now), model.restart(id, now, false)),
                9 => prop_assert_eq!(cluster.terminate(id, now), model.terminate(id, now)),
                10 => {
                    prop_assert_eq!(cluster.drain_events(), std::mem::take(&mut model.events));
                }
                _ => {
                    // A watcher-less embedding drops the feed instead.
                    cluster.discard_events();
                    model.events.clear();
                }
            }
            assert_matches_model(&mut cluster, &model);
        }

        // Let every pending start finish; the streams must still agree.
        now += SimDuration::from_secs(1);
        cluster.tick(now);
        model.tick(now);
        assert_matches_model(&mut cluster, &model);
        prop_assert_eq!(cluster.drain_events(), model.events);
        for id in probe_ids(model.containers.len()).skip(model.containers.len()) {
            prop_assert_eq!(cluster.oom_kill(id, now), Err(ClusterError::UnknownContainer(id)));
            prop_assert_eq!(cluster.restart(id, now), Err(ClusterError::UnknownContainer(id)));
            prop_assert_eq!(cluster.terminate(id, now), Err(ClusterError::UnknownContainer(id)));
        }
        prop_assert_eq!(cluster.container_count(), model.containers.len());
    }
}
