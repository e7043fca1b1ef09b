//! The cluster: nodes + containers.
//!
//! Stands in for Kubernetes as used by the paper: the Application
//! Deployer creates containers through it, and kills/restarts are driven
//! through the same object. Registration with the Escra Controller — the
//! Container Watcher's job in the paper — happens where a container is
//! deployed (`escra_core::deploy_app`, the harness's pod host), so the
//! cluster keeps no lifecycle feed.

use crate::container::{Container, ContainerSpec, ContainerState};
use crate::ids::{ContainerId, NodeId};
use crate::node::{Node, NodeSpec};
use escra_simcore::time::SimTime;
use serde::Serialize;

/// Ids per slab chunk, a power of two: the chunk and the slot in it are
/// a shift and a mask of the raw id.
const CHUNK_BITS: u32 = 10;
const CHUNK: usize = 1 << CHUNK_BITS;
/// Capacity the first chunk starts with, so a cluster of a few dozen
/// containers reserves a few dozen slots.
const FIRST_CAPACITY: usize = 64;

/// Placement strategy for new containers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum Placement {
    /// Cycle through nodes in order (Kubernetes default-ish spreading).
    #[default]
    RoundRobin,
    /// Place on the node with the fewest containers.
    LeastLoaded,
}

/// Errors from cluster operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The cluster has no nodes to place onto.
    NoNodes,
    /// Unknown container id.
    UnknownContainer(ContainerId),
}

impl core::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClusterError::NoNodes => write!(f, "cluster has no worker nodes"),
            ClusterError::UnknownContainer(id) => write!(f, "unknown container {id}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// A simulated cluster of worker nodes and containers.
///
/// ```
/// use escra_cluster::prelude::*;
/// use escra_simcore::time::SimTime;
///
/// let mut cluster = Cluster::new(vec![NodeSpec { cores: 4, mem_bytes: 1 << 32 }]);
/// let id = cluster
///     .deploy(ContainerSpec::new("web", AppId::new(0)), SimTime::ZERO)
///     .expect("deploy");
/// assert_eq!(cluster.container(id).expect("exists").node(), NodeId::new(0));
/// ```
#[derive(Debug, Clone)]
pub struct Cluster {
    nodes: Vec<Node>,
    /// Every container ever deployed, indexed by the raw id. Ids are
    /// minted only by [`Cluster::deploy`], densely from 0, so the index
    /// needs no map, and iteration is in id order. A deployed
    /// container's spec is not kept: its limits, base memory and restart
    /// delay are in the [`Container`], and whoever deploys it registers
    /// it from the spec it holds.
    containers: Slab<Container>,
    /// Ids of containers in `Starting` state, ascending — the only ones
    /// [`Cluster::tick`] has to visit. Maintained by `deploy`, `oom_kill`
    /// and `restart`; entries whose container left `Starting` some other
    /// way (terminated) are dropped by the next `tick`.
    starting: Vec<ContainerId>,
    next_container: u64,
    placement: Placement,
    rr_cursor: usize,
    total_oom_kills: u64,
}

impl Cluster {
    /// Creates a cluster with one node per spec and round-robin placement.
    pub fn new(node_specs: Vec<NodeSpec>) -> Self {
        let nodes = node_specs
            .into_iter()
            .enumerate()
            .map(|(i, s)| Node::new(NodeId::new(i as u64), s))
            .collect();
        Cluster {
            nodes,
            containers: Slab::default(),
            starting: Vec::new(),
            next_container: 0,
            placement: Placement::RoundRobin,
            rr_cursor: 0,
            total_oom_kills: 0,
        }
    }

    /// Sets the placement strategy (builder style).
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// The worker nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A node by id.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.as_u64() as usize)
    }

    /// All containers (including starting/terminated), in id order.
    pub fn containers(&self) -> impl Iterator<Item = &Container> {
        self.containers.iter()
    }

    /// Mutable iterator over containers, in id order.
    ///
    /// Lifecycle changes must go through [`Cluster::oom_kill`] /
    /// [`Cluster::restart`], not `Container`'s own methods: `tick` only
    /// visits containers the cluster knows to be starting.
    pub fn containers_mut(&mut self) -> impl Iterator<Item = &mut Container> {
        self.containers.iter_mut()
    }

    /// A container by id.
    #[inline]
    pub fn container(&self, id: ContainerId) -> Option<&Container> {
        self.containers.get(id)
    }

    /// A container by id, mutably.
    #[inline]
    pub fn container_mut(&mut self, id: ContainerId) -> Option<&mut Container> {
        self.containers.get_mut(id)
    }

    /// Number of containers ever deployed.
    pub fn container_count(&self) -> usize {
        self.next_container as usize
    }

    /// Total OOM kills across the cluster's lifetime (§VI-E reports these).
    pub fn total_oom_kills(&self) -> u64 {
        self.total_oom_kills
    }

    /// Deploys a container, choosing a node per the placement strategy.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::NoNodes`] when the cluster is empty.
    pub fn deploy(
        &mut self,
        spec: ContainerSpec,
        now: SimTime,
    ) -> Result<ContainerId, ClusterError> {
        if self.nodes.is_empty() {
            return Err(ClusterError::NoNodes);
        }
        let node_idx = match self.placement {
            Placement::RoundRobin => {
                let i = self.rr_cursor % self.nodes.len();
                self.rr_cursor += 1;
                i
            }
            Placement::LeastLoaded => self
                .nodes
                .iter()
                .enumerate()
                .min_by_key(|(_, n)| n.container_count())
                .map(|(i, _)| i)
                .expect("non-empty"),
        };
        let id = ContainerId::new(self.next_container);
        self.next_container += 1;
        let node_id = self.nodes[node_idx].id();
        self.containers
            .push(id, Container::new(&spec, node_id, now));
        self.nodes[node_idx].place(id);
        // The newest id is the largest: appending keeps the list sorted.
        self.starting.push(id);
        Ok(id)
    }

    /// OOM-kills a container (vanilla kernel behaviour when no Escra trap
    /// intervenes). The container restarts after its spec's delay.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownContainer`] for unknown ids.
    pub fn oom_kill(&mut self, id: ContainerId, now: SimTime) -> Result<(), ClusterError> {
        let c = self
            .container_mut(id)
            .ok_or(ClusterError::UnknownContainer(id))?;
        c.oom_kill(now);
        self.note_starting(id);
        self.total_oom_kills += 1;
        Ok(())
    }

    /// Restarts a container without an OOM (a VPA-style resize, see
    /// [`Container::restart`]); `tick` brings it back up.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownContainer`] for unknown ids.
    pub fn restart(&mut self, id: ContainerId, now: SimTime) -> Result<(), ClusterError> {
        let c = self
            .container_mut(id)
            .ok_or(ClusterError::UnknownContainer(id))?;
        c.restart(now);
        self.note_starting(id);
        Ok(())
    }

    /// Puts `id` on the pending-start list (sorted, no duplicates).
    fn note_starting(&mut self, id: ContainerId) {
        if let Err(at) = self.starting.binary_search(&id) {
            self.starting.insert(at, id);
        }
    }

    /// Terminates a container permanently and frees its node slot. The
    /// time is not needed: termination takes effect at once.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownContainer`] for unknown ids.
    pub fn terminate(&mut self, id: ContainerId, _now: SimTime) -> Result<(), ClusterError> {
        let c = self
            .container_mut(id)
            .ok_or(ClusterError::UnknownContainer(id))?;
        let node = c.node();
        c.terminate();
        self.nodes[node.as_u64() as usize].evict(id);
        Ok(())
    }

    /// Advances all container lifecycles to `now`, promoting every start
    /// whose `ready_at` has passed. Visits only the pending-start list,
    /// not every container ever deployed.
    pub fn tick(&mut self, now: SimTime) {
        debug_assert!(
            self.containers().enumerate().all(|(raw, c)| {
                !matches!(c.state(), ContainerState::Starting { .. })
                    || self
                        .starting
                        .binary_search(&ContainerId::new(raw as u64))
                        .is_ok()
            }),
            "a Starting container is missing from the pending-start list: \
             restart and kill through Cluster, not Container"
        );
        let Cluster {
            containers,
            starting,
            ..
        } = self;
        starting.retain(|&id| {
            let c = containers.get_mut(id).expect("listed ids were issued here");
            if !matches!(c.state(), ContainerState::Starting { .. }) {
                return false;
            }
            c.tick(now);
            !c.is_running()
        });
    }

    /// Calls `f` on every container on `node` that is currently running,
    /// in placement order, with the container borrowed mutably.
    pub fn for_each_running_on(
        &mut self,
        node: NodeId,
        mut f: impl FnMut(ContainerId, &mut Container),
    ) {
        let Some(n) = self.nodes.get(node.as_u64() as usize) else {
            return;
        };
        for &id in n.containers() {
            if let Some(c) = self.containers.get_mut(id).filter(|c| c.is_running()) {
                f(id, c);
            }
        }
    }
}

/// Values indexed by raw container id, in chunks of `CHUNK`.
///
/// Every chunk but the first is allocated at its full capacity and only
/// appended to, so a large slab grows without reallocating-and-copying
/// (a doubling `Vec` holds the old and the new copy at its peak). The
/// first starts at `FIRST_CAPACITY` and doubles like a `Vec` up to
/// `CHUNK`: a small cluster reserves little, and what growth copies is
/// bounded by one chunk.
#[derive(Debug, Clone)]
struct Slab<T> {
    chunks: Vec<Vec<T>>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab { chunks: Vec::new() }
    }
}

impl<T> Slab<T> {
    #[inline]
    fn get(&self, id: ContainerId) -> Option<&T> {
        let (chunk, slot) = slab_index(id)?;
        self.chunks.get(chunk)?.get(slot)
    }

    #[inline]
    fn get_mut(&mut self, id: ContainerId) -> Option<&mut T> {
        let (chunk, slot) = slab_index(id)?;
        self.chunks.get_mut(chunk)?.get_mut(slot)
    }

    /// Appends the value of `id`, which must be the next id in order.
    fn push(&mut self, id: ContainerId, value: T) {
        let (chunk, slot) = slab_index(id).expect("issued ids fit a usize");
        if chunk == self.chunks.len() {
            let capacity = if chunk == 0 { FIRST_CAPACITY } else { CHUNK };
            self.chunks.push(Vec::with_capacity(capacity));
        }
        debug_assert_eq!(slot, self.chunks[chunk].len(), "ids are pushed in order");
        self.chunks[chunk].push(value);
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flatten()
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.chunks.iter_mut().flatten()
    }
}

/// `(chunk, slot)` of `id` in a [`Slab`]; `None` when the raw id does not
/// fit a `usize` (so it was never issued).
#[inline]
fn slab_index(id: ContainerId) -> Option<(usize, usize)> {
    let raw = usize::try_from(id.as_u64()).ok()?;
    Some((raw >> CHUNK_BITS, raw & (CHUNK - 1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::AppId;

    fn small_cluster() -> Cluster {
        Cluster::new(vec![
            NodeSpec {
                cores: 4,
                mem_bytes: 8 << 30,
            },
            NodeSpec {
                cores: 4,
                mem_bytes: 8 << 30,
            },
        ])
    }

    fn spec(name: &str) -> ContainerSpec {
        ContainerSpec::new(name, AppId::new(0))
    }

    #[test]
    fn round_robin_spreads() {
        let mut cl = small_cluster();
        let a = cl.deploy(spec("a"), SimTime::ZERO).unwrap();
        let b = cl.deploy(spec("b"), SimTime::ZERO).unwrap();
        let c = cl.deploy(spec("c"), SimTime::ZERO).unwrap();
        assert_eq!(cl.container(a).unwrap().node(), NodeId::new(0));
        assert_eq!(cl.container(b).unwrap().node(), NodeId::new(1));
        assert_eq!(cl.container(c).unwrap().node(), NodeId::new(0));
    }

    #[test]
    fn least_loaded_fills_gaps() {
        let mut cl = small_cluster().with_placement(Placement::LeastLoaded);
        let a = cl.deploy(spec("a"), SimTime::ZERO).unwrap();
        let _b = cl.deploy(spec("b"), SimTime::ZERO).unwrap();
        cl.terminate(a, SimTime::ZERO).unwrap();
        let c = cl.deploy(spec("c"), SimTime::ZERO).unwrap();
        assert_eq!(cl.container(c).unwrap().node(), NodeId::new(0));
    }

    #[test]
    fn empty_cluster_errors() {
        let mut cl = Cluster::new(vec![]);
        assert_eq!(
            cl.deploy(spec("x"), SimTime::ZERO),
            Err(ClusterError::NoNodes)
        );
    }

    #[test]
    fn unknown_container_errors() {
        let mut cl = small_cluster();
        let bogus = ContainerId::new(99);
        assert_eq!(
            cl.oom_kill(bogus, SimTime::ZERO),
            Err(ClusterError::UnknownContainer(bogus))
        );
        let err = cl.terminate(bogus, SimTime::ZERO).unwrap_err();
        assert_eq!(err.to_string(), "unknown container ctr-99");
    }

    #[test]
    fn tick_promotes_exactly_the_pods_whose_ready_at_has_passed() {
        use escra_simcore::time::SimDuration;
        let mut cl = small_cluster();
        let delays_ms = [300, 100, 200, 100];
        let ids: Vec<ContainerId> = delays_ms
            .iter()
            .map(|&ms| {
                let s = spec("p").with_restart_delay(SimDuration::from_millis(ms));
                cl.deploy(s, SimTime::ZERO).unwrap()
            })
            .collect();
        let running = |cl: &Cluster| -> Vec<ContainerId> {
            let ids = (0..cl.container_count() as u64).map(ContainerId::new);
            ids.filter(|&id| cl.container(id).unwrap().is_running())
                .collect()
        };
        cl.tick(SimTime::from_millis(99));
        assert!(running(&cl).is_empty());
        // `ready_at == now` counts, for several pods in one tick.
        cl.tick(SimTime::from_millis(100));
        assert_eq!(running(&cl), vec![ids[1], ids[3]]);
        // A kill or a restart while others are still starting re-enters
        // the start list, and a terminated starter drops out of it.
        cl.oom_kill(ids[1], SimTime::from_millis(150)).unwrap();
        cl.restart(ids[3], SimTime::from_millis(150)).unwrap();
        cl.terminate(ids[2], SimTime::from_millis(150)).unwrap();
        assert!(running(&cl).is_empty());
        cl.tick(SimTime::from_millis(249));
        assert!(running(&cl).is_empty());
        cl.tick(SimTime::from_millis(250));
        assert_eq!(running(&cl), vec![ids[1], ids[3]]);
        cl.tick(SimTime::from_millis(300));
        assert_eq!(running(&cl), vec![ids[0], ids[1], ids[3]]);
        assert_eq!(
            cl.container(ids[2]).unwrap().state(),
            ContainerState::Terminated
        );
        cl.tick(SimTime::from_secs(10));
        assert_eq!(running(&cl), vec![ids[0], ids[1], ids[3]]);
        assert!(
            cl.starting.is_empty(),
            "every start was promoted or dropped"
        );
    }

    #[test]
    fn restart_goes_through_the_cluster() {
        let mut cl = small_cluster();
        let a = cl.deploy(spec("a"), SimTime::ZERO).unwrap();
        cl.tick(SimTime::from_secs(3));
        cl.restart(a, SimTime::from_secs(4)).unwrap();
        assert_eq!(cl.container(a).unwrap().restarts(), 1);
        assert_eq!(cl.total_oom_kills(), 0);
        cl.tick(SimTime::from_secs(5));
        assert!(!cl.container(a).unwrap().is_running());
        cl.tick(SimTime::from_secs(6));
        assert!(cl.container(a).unwrap().is_running());
        let bogus = ContainerId::new(u64::MAX);
        assert_eq!(
            cl.restart(bogus, SimTime::ZERO),
            Err(ClusterError::UnknownContainer(bogus))
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "missing from the pending-start list")]
    fn a_restart_that_bypasses_the_cluster_fails_the_next_tick() {
        let mut cl = small_cluster();
        let a = cl.deploy(spec("a"), SimTime::ZERO).unwrap();
        cl.tick(SimTime::from_secs(3));
        cl.container_mut(a).unwrap().restart(SimTime::from_secs(4));
        cl.tick(SimTime::from_secs(10));
    }

    #[test]
    fn ids_index_the_slab_across_chunk_boundaries() {
        let mut cl = small_cluster();
        let n = 2 * CHUNK + 5;
        for i in 0..n {
            let s = spec(&format!("c{i}")).with_cpu_limit(1.0 + i as f64);
            let id = cl.deploy(s, SimTime::ZERO).unwrap();
            assert_eq!(id, ContainerId::new(i as u64));
        }
        assert_eq!(cl.container_count(), n);
        for i in 0..n {
            let id = ContainerId::new(i as u64);
            let c = cl.container(id).unwrap();
            assert_eq!(c.node(), NodeId::new(i as u64 % 2));
            assert_eq!(c.cpu.quota_cores(), 1.0 + i as f64);
            assert!(cl.container_mut(id).is_some());
        }
        assert!(cl.container(ContainerId::new(n as u64)).is_none());
        assert!(cl.container_mut(ContainerId::new(u64::MAX)).is_none());
        assert_eq!(cl.containers().count(), n);
        // The first chunk grew to full size; the later ones were born
        // full-size and never reallocated.
        for (k, chunk) in cl.containers.chunks.iter().enumerate() {
            assert_eq!(chunk.capacity(), CHUNK, "chunk {k}");
        }
    }

    #[test]
    fn a_small_cluster_reserves_one_small_chunk() {
        let mut cl = small_cluster();
        for _ in 0..32 {
            cl.deploy(spec("c"), SimTime::ZERO).unwrap();
        }
        let caps: Vec<usize> = cl.containers.chunks.iter().map(Vec::capacity).collect();
        assert_eq!(caps, vec![FIRST_CAPACITY]);
    }

    #[test]
    fn for_each_running_on_skips_starting_and_terminated() {
        let running = |cl: &mut Cluster| {
            let mut ids = Vec::new();
            cl.for_each_running_on(NodeId::new(0), |id, _| ids.push(id));
            ids
        };
        let mut cl = small_cluster();
        let a = cl.deploy(spec("a"), SimTime::ZERO).unwrap();
        let _b = cl.deploy(spec("b"), SimTime::ZERO).unwrap(); // node 1
        assert!(running(&mut cl).is_empty()); // still starting
        cl.tick(SimTime::from_secs(3));
        assert_eq!(running(&mut cl), vec![a]);
        cl.terminate(a, SimTime::from_secs(4)).unwrap();
        assert!(running(&mut cl).is_empty());
    }
}
