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
//! `container()` answer, a tick that promotes the wrong pods or a pod
//! that never starts, never as a crash.

use escra::cluster::{
    AppId, Cluster, ClusterError, Container, ContainerId, ContainerSpec, ContainerState, NodeId,
    NodeSpec, Placement,
};
use escra::simcore::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

const NODES: usize = 3;

#[derive(Debug, Clone, PartialEq)]
struct ModelContainer {
    spec: ContainerSpec,
    node: NodeId,
    state: ContainerState,
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
    total_oom_kills: u64,
}

impl Model {
    fn deploy(&mut self, least_loaded: bool, spec: ContainerSpec, now: SimTime) {
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
                    ready_at: now + spec.restart_delay,
                },
                spec,
                oom_kills: 0,
                restarts: 0,
            },
        );
    }

    fn restart(&mut self, id: ContainerId, now: SimTime, oom: bool) -> Result<(), ClusterError> {
        let c = self
            .containers
            .get_mut(&id)
            .ok_or(ClusterError::UnknownContainer(id))?;
        c.restarts += 1;
        c.state = ContainerState::Starting {
            ready_at: now + c.spec.restart_delay,
        };
        if oom {
            c.oom_kills += 1;
            self.total_oom_kills += 1;
        }
        Ok(())
    }

    fn terminate(&mut self, id: ContainerId) -> Result<(), ClusterError> {
        let c = self
            .containers
            .get_mut(&id)
            .ok_or(ClusterError::UnknownContainer(id))?;
        c.state = ContainerState::Terminated;
        self.placed[c.node.as_u64() as usize].retain(|x| *x != id);
        Ok(())
    }

    /// Promotes every start whose `ready_at` has passed; returns the
    /// promoted ids in id order.
    fn tick(&mut self, now: SimTime) -> Vec<ContainerId> {
        let mut promoted = Vec::new();
        for (id, c) in self.containers.iter_mut() {
            if matches!(c.state, ContainerState::Starting { ready_at } if now >= ready_at) {
                c.state = ContainerState::Running;
                promoted.push(*id);
            }
        }
        promoted
    }
}

/// A spec that differs from its neighbours in every field, so a lookup
/// that lands one slot off reads as wrong limits.
fn spec_for(n: u64, restart_delay: SimDuration) -> ContainerSpec {
    ContainerSpec::new(format!("p{n}"), AppId::new(n % 5))
        .with_cpu_limit(0.5 + (n % 7) as f64)
        .with_mem_limit((128 + n % 11) << 20)
        .with_base_mem((16 + n % 13) << 20)
        .with_restart_delay(restart_delay)
}

fn new_cluster(least_loaded: bool) -> Cluster {
    let spec = NodeSpec {
        cores: 4,
        mem_bytes: 8 << 30,
    };
    Cluster::new(vec![spec; NODES]).with_placement(if least_loaded {
        Placement::LeastLoaded
    } else {
        Placement::RoundRobin
    })
}

fn deploy(
    cluster: &mut Cluster,
    model: &mut Model,
    least_loaded: bool,
    restart_delay: SimDuration,
    now: SimTime,
) -> Result<(), TestCaseError> {
    let issued = model.containers.len() as u64;
    let s = spec_for(issued, restart_delay);
    let got = cluster.deploy(s.clone(), now).expect("cluster has nodes");
    prop_assert_eq!(got, ContainerId::new(issued));
    model.deploy(least_loaded, s, now);
    Ok(())
}

/// The ids of the running containers, in id order.
fn running(cluster: &Cluster) -> Vec<ContainerId> {
    let ids = (0..cluster.container_count() as u64).map(ContainerId::new);
    ids.filter(|&id| cluster.container(id).is_some_and(Container::is_running))
        .collect()
}

/// Ticks both to `now`: the cluster must promote exactly the pods the
/// model does — the running set afterwards is the running set before
/// plus the model's promotions, and nothing else.
fn tick(cluster: &mut Cluster, model: &mut Model, now: SimTime) -> Result<(), TestCaseError> {
    let mut want = running(cluster);
    cluster.tick(now);
    want.extend(model.tick(now));
    want.sort();
    prop_assert_eq!(running(cluster), want);
    Ok(())
}

/// One churn step: op `0..=3` deploys, `4..=6` and `10` tick, `7` / `8`
/// / `9` kill, restart or terminate `id`, and anything else only looks
/// (every step is followed by a full comparison with the model).
fn churn(
    cluster: &mut Cluster,
    model: &mut Model,
    least_loaded: bool,
    (op, id, delay): (u8, ContainerId, u64),
    now: SimTime,
) -> Result<(), TestCaseError> {
    match op {
        // Several pods with equal and unequal cold-start delays
        // become ready in one tick.
        0..=3 => deploy(
            cluster,
            model,
            least_loaded,
            SimDuration::from_millis(100 * delay),
            now,
        )?,
        4..=6 | 10 => tick(cluster, model, now)?,
        7 => prop_assert_eq!(cluster.oom_kill(id, now), model.restart(id, now, true)),
        8 => prop_assert_eq!(cluster.restart(id, now), model.restart(id, now, false)),
        9 => prop_assert_eq!(cluster.terminate(id, now), model.terminate(id)),
        _ => {}
    }
    Ok(())
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
    // Nothing here changes a limit, so a container's cgroups still carry
    // its spec's limits, which differ between neighbouring ids: a lookup
    // that lands on the wrong slot shows.
    let view = |c: &Container| {
        (
            c.node(),
            c.state(),
            c.oom_kills(),
            c.restarts(),
            c.cpu.quota_cores(),
            c.mem.limit_bytes(),
        )
    };
    let model_view = |m: &ModelContainer| {
        (
            m.node,
            m.state,
            m.oom_kills,
            m.restarts,
            m.spec.cpu_limit_cores,
            m.spec.mem_limit_bytes,
        )
    };
    for id in probe_ids(model.containers.len()) {
        let want = model.containers.get(&id);
        assert_eq!(
            cluster.container(id).map(view),
            want.map(model_view),
            "container({id})"
        );
        assert_eq!(
            cluster.container_mut(id).map(|c| view(c)),
            want.map(model_view),
            "container_mut({id})"
        );
    }
    let want: Vec<_> = model.containers.values().map(model_view).collect();
    let order: Vec<_> = cluster.containers().map(view).collect();
    assert_eq!(order, want, "containers() is in id order");
    let order_mut: Vec<_> = cluster.containers_mut().map(|c| view(c)).collect();
    assert_eq!(order_mut, want, "containers_mut() is in id order");
    // One node past the last has no containers.
    for n in 0..=NODES {
        let running: Vec<ContainerId> = model
            .placed
            .get(n)
            .into_iter()
            .flatten()
            .copied()
            .filter(|id| model.containers[id].state == ContainerState::Running)
            .collect();
        let node = NodeId::new(n as u64);
        let mut visited = Vec::new();
        cluster.for_each_running_on(node, |id, c| {
            assert!(c.is_running());
            visited.push(id);
        });
        assert_eq!(visited, running, "for_each_running_on({node})");
    }
}

/// Lets every pending start finish, then holds the views and the
/// unknown-id errors to the model.
fn settle(cluster: &mut Cluster, model: &mut Model, mut now: SimTime) -> Result<(), TestCaseError> {
    now += SimDuration::from_secs(1);
    tick(cluster, model, now)?;
    assert_matches_model(cluster, model);
    for id in probe_ids(model.containers.len()).skip(model.containers.len()) {
        prop_assert_eq!(
            cluster.oom_kill(id, now),
            Err(ClusterError::UnknownContainer(id))
        );
        prop_assert_eq!(
            cluster.restart(id, now),
            Err(ClusterError::UnknownContainer(id))
        );
        prop_assert_eq!(
            cluster.terminate(id, now),
            Err(ClusterError::UnknownContainer(id))
        );
    }
    prop_assert_eq!(cluster.container_count(), model.containers.len());
    Ok(())
}

/// Container count the boundary test deploys past: two of the store's
/// 1024-container chunks, so the first chunk has grown to full size and
/// at least two chunk boundaries are crossed before churn starts.
const SPAN: u64 = 2 * 1024;

proptest! {
    /// Arbitrary lifecycle churn stays view-identical to the `BTreeMap`
    /// model, promotion for promotion.
    #[test]
    fn cluster_slab_matches_btreemap_model(
        least_loaded in any::<bool>(),
        ops in proptest::collection::vec(
            (0u8..12, any::<u64>(), 0u64..4, 0u64..250),
            1..220,
        ),
    ) {
        let mut cluster = new_cluster(least_loaded);
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
            churn(&mut cluster, &mut model, least_loaded, (op, id, delay), now)?;
            assert_matches_model(&mut cluster, &model);
        }
        settle(&mut cluster, &mut model, now)?;
    }

    /// A store grown past two full chunks: ids on either side of every
    /// chunk boundary and every size the first chunk grew through
    /// (multiples of 64 cover them all) answer lookups and lifecycle
    /// changes like the model.
    #[test]
    fn cluster_slab_spans_chunk_boundaries(
        least_loaded in any::<bool>(),
        extra in 0u64..1100,
        ops in proptest::collection::vec(
            (0u8..12, any::<u64>(), 0u64..4, 0u64..250),
            1..16,
        ),
    ) {
        let mut cluster = new_cluster(least_loaded);
        let mut model = Model::default();
        let mut now = SimTime::ZERO;
        for i in 0..SPAN + extra {
            let delay = SimDuration::from_millis(100 * (i % 4));
            deploy(&mut cluster, &mut model, least_loaded, delay, now)?;
        }
        assert_matches_model(&mut cluster, &model);

        for (op, pick, delay, dt_ms) in ops {
            now += SimDuration::from_millis(dt_ms);
            let issued = model.containers.len() as u64;
            let boundary = 64 * ((pick >> 8) % (issued / 64 + 1));
            let id = ContainerId::new(match pick % 4 {
                0 => issued + pick % 3,
                _ => (boundary + pick % 3).saturating_sub(1),
            });
            churn(&mut cluster, &mut model, least_loaded, (op, id, delay), now)?;
            assert_matches_model(&mut cluster, &model);
        }
        settle(&mut cluster, &mut model, now)?;
    }
}
