//! # escra-harness
//!
//! The experiment runner tying cluster, policies, and workloads into the
//! paper's experiments:
//!
//! * [`queueing`] — fluid FIFO queue draining (throttling → latency);
//! * [`policy`] — the policies under test (Escra / Static / Autopilot /
//!   VPA / tiny autoscaler / ARC-V);
//! * [`microsim`] — the microservice experiment loop (Figs. 4–6,
//!   Table I, §VI-I overheads) on a private `control_plane` (Controller,
//!   Agents and the faulty fabric; [`run_traced`] records all three,
//!   [`run_phased`] times the event loop phase by phase);
//! * [`serverless_sim`] — the OpenWhisk-style invoker loop
//!   (Figs. 7–9);
//! * [`trace_sim`] — the trace-driven mega-scenario driver (one
//!   Distributed Container per traced app, tens of thousands of apps);
//!   both pod-pool drivers stand on one private `pod_host` (cluster +
//!   Controller/Agents or baseline scaler, pod deploy/teardown, memory
//!   charge and OOM paths, per-second sampling);
//! * [`tracking`] — the Fig. 2 single-container CPU-tracking experiment;
//! * [`sweep`] — the deterministic parallel sweep runner the benchmark
//!   grids execute on (bit-identical to serial execution).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod control_plane;
pub mod microsim;
mod pod_host;
pub mod policy;
pub mod queueing;
pub mod serverless_sim;
pub mod sweep;
pub mod trace_sim;
pub mod tracking;

pub use control_plane::{controller_addr, node_addr};
pub use microsim::{
    profile_run, run, run_phased, run_traced, run_with_profiles, MicroSimConfig, MicroSimOutput,
    Phase, PhaseTimes, ReportPlan, SimStats,
};
pub use policy::{BaselineScalerKind, Policy};
pub use sweep::{default_threads, run_serial, run_sweep, scenario_seed, scenarios, Scenario};
pub use trace_sim::{run_trace_sim, TraceSimConfig, TraceSimOutput};
