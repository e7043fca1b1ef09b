//! # escra-benchmark
//!
//! The repository's repeatable benchmark. Five closed-loop,
//! single-threaded, fixed-work workloads; eight end-to-end metrics; a
//! per-layer ledger from a separate traced run. Every layer is measured
//! from outside, by timing calls into the crates' public functions.
//! `README.md` in this directory names every metric and workload and
//! says why it is there.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod inputs;
pub mod metrics;
pub mod plant;
pub mod probes;
pub mod report;
pub mod run;
pub mod selfcheck;
pub mod span;
pub mod stats;
pub mod workloads;
