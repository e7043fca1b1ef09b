//! # escra-cluster
//!
//! A mini container-orchestrator substrate standing in for the
//! Kubernetes + Docker layer the paper deploys on:
//!
//! * [`ids`] — typed [`ids::NodeId`] / [`ids::ContainerId`] / [`ids::AppId`];
//! * [`node`] — worker nodes with core/memory capacity;
//! * [`container`] — container instances owning their CFS bandwidth and
//!   memory cgroups, with the start → run → OOM-kill → restart lifecycle
//!   (restarts carry the cold-start penalty that Escra's OOM trap avoids);
//! * [`cluster`] — the deployer (round-robin / least-loaded placement),
//!   the pending-start list `tick` promotes from, and cluster-wide OOM
//!   accounting (paper §VI-E). It keeps no lifecycle feed: whoever
//!   deploys a container registers it with the Escra Controller.
//!
//! Execution (who gets CPU this period, what memory is charged) is driven
//! by the harness crate; this crate owns structure and lifecycle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cluster;
pub mod container;
pub mod ids;
pub mod node;

pub use cluster::{Cluster, ClusterError, Placement};
pub use container::{Container, ContainerSpec, ContainerState};
pub use ids::{AppId, ContainerId, NodeId};
pub use node::{Node, NodeSpec};

/// Convenient re-exports of the most used types.
pub mod prelude {
    pub use crate::cluster::{Cluster, ClusterError, Placement};
    pub use crate::container::{Container, ContainerSpec, ContainerState};
    pub use crate::ids::{AppId, ContainerId, NodeId};
    pub use crate::node::{Node, NodeSpec};
}
