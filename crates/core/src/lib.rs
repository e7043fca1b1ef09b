//! # escra-core
//!
//! The Escra system itself — the primary contribution of *"Escra:
//! Event-driven, Sub-second Container Resource Allocation"* (ICDCS 2022)
//! — implemented against the simulated substrates in `escra-cfs`,
//! `escra-net`, and `escra-cluster`:
//!
//! * [`config`] — the tunables Υ, γ, κ, δ, σ, window length, report
//!   period, with the paper's evaluation defaults;
//! * [`distributed_container`] — the Distributed Container abstraction:
//!   per-application aggregate CPU/memory limits enforced continuously at
//!   runtime (unlike admission-time Resource Quotas);
//! * [`allocator`] — the Resource Allocator: windowed throttle/unused
//!   statistics and the scale-up / scale-down / OOM decision rules of
//!   §IV-D;
//! * [`controller`] — the logically centralized Controller of §IV-C:
//!   registration, telemetry fan-in (every telemetry form ends in one
//!   decision step that turns the Allocator's decision into one Agent
//!   command), the 5-second proactive reclamation loop, and the
//!   reclaim-then-grant-or-kill OOM path;
//! * [`agent`] — the per-node Agent applying limit updates without
//!   restarts and running reclamation sweeps (reporting ψ);
//! * [`deployer`] — the Application Deployer with the paper's
//!   initial-limit formulas (eqs. 1–2); it registers each container with
//!   the Controller as it creates it, which is the Container Watcher's
//!   role in the paper (Fig. 1 ①);
//! * [`telemetry`] — control-plane message types and wire sizes for the
//!   §VI-I network-overhead accounting;
//! * [`sharded`] — the §VI-I per-shard capacity model: N Controller
//!   shards behind an app-affine router that clocks each shard's
//!   telemetry ingest separately, all on the caller's thread.
//!
//! The [`Controller`] is generic over a [`TraceSink`]: the default
//! [`NoopSink`] compiles every instrumentation site out, while a
//! [`TraceRecorder`] captures the §VI event stream (ingest, decisions,
//! OOM grants, reclamation) for the `trace_dump` exposition.
//!
//! ## Quick start
//!
//! ```
//! use escra_core::prelude::*;
//! use escra_cluster::prelude::*;
//! use escra_simcore::time::SimTime;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = EscraConfig::default();
//! let mut cluster = Cluster::new(vec![NodeSpec { cores: 16, mem_bytes: 32 << 30 }]);
//! let mut controller = Controller::new(cfg.clone());
//! let app = AppConfig {
//!     app: AppId::new(0),
//!     name: "demo".into(),
//!     global_cpu_cores: 8.0,
//!     global_mem_bytes: 2 << 30,
//!     containers: vec![
//!         ContainerSpec::new("web", AppId::new(0)),
//!         ContainerSpec::new("db", AppId::new(0)),
//!     ],
//! };
//! let (ids, actions) = deploy_app(&cfg, &app, &mut cluster, &mut controller, SimTime::ZERO)?;
//! assert_eq!(ids.len(), 2);
//! assert!(!actions.is_empty());
//! # Ok(())
//! # }
//! ```

// One `unsafe` site is allowed, on `ResourceAllocator::prefetch_slot`:
// a cache hint that reads nothing. Everything else is safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod agent;
pub mod allocator;
pub mod columnar;
pub mod config;
pub mod controller;
pub mod deployer;
pub mod distributed_container;
pub mod sharded;
pub mod telemetry;

pub use agent::{Agent, AgentReport, ReclaimEntry};
pub use allocator::{
    AllocatorError, CpuDecision, OomDecision, ResourceAllocator, MAX_CONTAINER_ID,
};
pub use config::EscraConfig;
pub use controller::{Action, Controller, ControllerStats};
pub use deployer::{deploy_app, initial_cpu_limit, initial_mem_limit, AppConfig};
pub use distributed_container::DistributedContainer;
pub use sharded::ShardedController;
pub use telemetry::{CpuStatsColumns, CpuStatsEntry, ToAgent, ToController};

// Trace plumbing re-exported so embedders of `Controller<S>` need not
// depend on `escra-metrics` directly.
pub use escra_metrics::trace::{NoopSink, TraceRecorder, TraceSink};

/// Convenient re-exports of the most used types.
pub mod prelude {
    pub use crate::agent::{Agent, AgentReport, ReclaimEntry};
    pub use crate::allocator::{CpuDecision, OomDecision, ResourceAllocator};
    pub use crate::config::EscraConfig;
    pub use crate::controller::{Action, Controller};
    pub use crate::deployer::{deploy_app, AppConfig};
    pub use crate::distributed_container::DistributedContainer;
    pub use crate::telemetry::{CpuStatsEntry, ToAgent, ToController};
}
