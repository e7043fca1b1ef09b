//! # escra-net
//!
//! Simulated control-plane network for the Escra reproduction.
//!
//! The paper's control plane uses per-container kernel TCP sockets for
//! registration and OOM events, UDP for the per-period CPU telemetry
//! stream, and gRPC between Controller and Agents. What the allocation
//! algorithms observe from all of that is (a) **delivery latency** and
//! (b) **bytes on the wire** (for the §VI-I network-overhead analysis).
//! This crate models exactly those two things:
//!
//! * [`Network`] — a latency-delayed, deterministically ordered message
//!   fabric between [`Addr`] endpoints, generic over the message type;
//! * [`LatencyModel`] — base + bounded uniform jitter one-way delay;
//! * [`BandwidthAccountant`] — per-second byte counters with peak-Mbps
//!   queries, reproducing the paper's "12.06 Mbps for 32 containers"
//!   style of measurement;
//! * [`FaultPlan`] / [`FaultInjector`] — deterministic fault injection
//!   (loss, duplication, delay spikes, timed partitions) for robustness
//!   experiments, with the guarantee that the empty plan perturbs
//!   nothing;
//! * [`InFlightSet`] — a canonical, enumerable in-flight message
//!   multiset: the network as the `escra-mc` model checker sees it,
//!   branching over every deliver/drop/duplicate choice.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accounting;
pub mod fabric;
pub mod fault;
pub mod inflight;

pub use accounting::{batch_wire_bytes, BandwidthAccountant};
pub use fabric::{Addr, LatencyModel, Network};
pub use fault::{FaultDecision, FaultInjector, FaultPlan, FaultStats, Partition};
pub use inflight::{InFlightSet, WireEncode};
