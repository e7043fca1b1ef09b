//! # escra
//!
//! A comprehensive Rust reproduction of *"Escra: Event-driven,
//! Sub-second Container Resource Allocation"* (ICDCS 2022).
//!
//! Escra replaces coarse-grained container autoscaling (VPA, Autopilot)
//! with an event-driven control plane: kernel hooks in the CFS bandwidth
//! controller stream **per-period telemetry** (quota, unused runtime,
//! throttled) to a logically centralized Controller; a lightweight
//! Resource Allocator rescales container quotas **as often as every
//! 100 ms**; a `try_charge()` hook traps **OOM events before the kill**
//! so memory can be granted from a per-application pool; and a
//! **Distributed Container** enforces aggregate per-tenant limits at
//! runtime across hosts.
//!
//! This crate is an umbrella over the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `escra-core` | Controller, Resource Allocator, Agent, Distributed Container |
//! | [`cfs`] | `escra-cfs` | simulated CFS bandwidth control + memory cgroups |
//! | [`cluster`] | `escra-cluster` | nodes, containers, deployer, watcher |
//! | [`net`] | `escra-net` | control-plane fabric + bandwidth accounting |
//! | [`baselines`] | `escra-baselines` | Static, Autopilot recreation, VPA, tiny autoscaler, ARC-V |
//! | [`workloads`] | `escra-workloads` | the paper's apps, workloads, serverless substrate |
//! | [`metrics`] | `escra-metrics` | latency/slack recorders, report tables |
//! | [`harness`] | `escra-harness` | the experiment runners |
//! | [`simcore`] | `escra-simcore` | deterministic DES core |
//! | [`mc`] | `escra-mc` | explicit-state model checker for the limit/ack/grant protocol |
//!
//! ## Example
//!
//! ```
//! use escra::harness::{run, MicroSimConfig, Policy};
//! use escra::simcore::time::SimDuration;
//! use escra::workloads::{teastore, WorkloadKind};
//!
//! let cfg = MicroSimConfig::new(
//!     teastore(),
//!     WorkloadKind::Fixed { rps: 100.0 },
//!     Policy::escra_default(),
//!     7,
//! )
//! .with_duration(SimDuration::from_secs(5));
//! let out = run(&cfg);
//! assert!(out.metrics.throughput() > 50.0);
//! assert_eq!(out.metrics.oom_kills, 0);
//! ```
//!
//! See `DESIGN.md` for the system inventory and per-experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured results; every table and
//! figure of the paper has a regenerating subcommand of the
//! `escra-bench` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use escra_baselines as baselines;
pub use escra_cfs as cfs;
pub use escra_cluster as cluster;
pub use escra_core as core;
pub use escra_harness as harness;
pub use escra_mc as mc;
pub use escra_metrics as metrics;
pub use escra_net as net;
pub use escra_simcore as simcore;
pub use escra_workloads as workloads;
