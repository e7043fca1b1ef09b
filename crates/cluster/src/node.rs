//! Worker nodes.

use crate::ids::{ContainerId, NodeId};
use serde::Serialize;

/// Static capacity of a worker node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct NodeSpec {
    /// Number of physical cores.
    pub cores: u32,
    /// Physical memory in bytes.
    pub mem_bytes: u64,
}

impl NodeSpec {
    /// The paper's microservice worker: 2× Xeon Silver 4114 (20 cores) and
    /// 192 GB — scaled here to the logical capacity the experiments use.
    pub fn cloudlab_xl170() -> Self {
        NodeSpec {
            cores: 20,
            mem_bytes: 192 * 1024 * escra_cfs::MIB,
        }
    }
}

/// A worker node: capacity plus the containers placed on it.
#[derive(Debug, Clone)]
pub struct Node {
    id: NodeId,
    spec: NodeSpec,
    containers: Vec<ContainerId>,
}

impl Node {
    /// Creates an empty node.
    pub fn new(id: NodeId, spec: NodeSpec) -> Self {
        Node {
            id,
            spec,
            containers: Vec::new(),
        }
    }

    /// The node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's capacity spec.
    pub fn spec(&self) -> NodeSpec {
        self.spec
    }

    /// CPU capacity in core-microseconds per CFS period of `period_us`.
    pub fn cpu_capacity_us(&self, period_us: u64) -> f64 {
        self.spec.cores as f64 * period_us as f64
    }

    /// Containers currently placed on this node.
    pub fn containers(&self) -> &[ContainerId] {
        &self.containers
    }

    /// Number of containers on the node.
    pub fn container_count(&self) -> usize {
        self.containers.len()
    }

    /// Places a container (deployer use only).
    pub(crate) fn place(&mut self, c: ContainerId) {
        debug_assert!(!self.containers.contains(&c));
        self.containers.push(c);
    }

    /// Removes a container (teardown).
    pub(crate) fn evict(&mut self, c: ContainerId) {
        self.containers.retain(|x| *x != c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_math() {
        let n = Node::new(
            NodeId::new(0),
            NodeSpec {
                cores: 4,
                mem_bytes: 1 << 30,
            },
        );
        assert_eq!(n.cpu_capacity_us(100_000), 400_000.0);
    }

    #[test]
    fn place_and_evict() {
        let mut n = Node::new(NodeId::new(0), NodeSpec::cloudlab_xl170());
        n.place(ContainerId::new(1));
        n.place(ContainerId::new(2));
        assert_eq!(n.container_count(), 2);
        n.evict(ContainerId::new(1));
        assert_eq!(n.containers(), &[ContainerId::new(2)]);
    }

    #[test]
    fn cloudlab_profile() {
        let s = NodeSpec::cloudlab_xl170();
        assert_eq!(s.cores, 20);
        assert!(s.mem_bytes > 100 * (1 << 30));
    }
}
