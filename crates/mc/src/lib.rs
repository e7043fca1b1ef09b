//! # escra-mc
//!
//! An explicit-state model checker for the Escra control-plane protocol
//! (the seq-numbered limit/ack commands and the OOM grant / retry /
//! reconcile / abandon machine), in the style of dslab-mp's BFS/DFS
//! strategies.
//!
//! The randomized fault plans of `escra-net` answer "does the protocol
//! survive *this* unlucky run?"; this crate answers "does it survive
//! *every* run of a small configuration?". A [`model::World`] wraps the
//! real production state machines — [`escra_core::Controller`],
//! [`escra_core::Agent`], a real [`escra_cluster::Cluster`] with live
//! memory cgroups — behind an [`escra_net::InFlightSet`] network,
//! delivers through the drivers' own delivery step
//! ([`escra_core::Delivery`]), and the explorer branches over every
//! enabled event:
//!
//! * **Deliver(i)** — hand the i-th distinct in-flight message to its
//!   destination (picking *any* i models all reorderings);
//! * **Drop(i)** / **Duplicate(i)** — budgeted message faults;
//! * **Oom(c)** — container `c` attempts a memory charge and traps;
//! * **CpuReport(c)** — a fully-throttled telemetry period (its quota
//!   command shares the seq space with memory grants);
//! * **Tick** — the grant-retry timer fires.
//!
//! States are canonically hashed (128-bit FNV-1a over the allocator
//! books, agent seq maps, pending grants, cgroup state and the in-flight
//! multiset — see `escra_metrics::fingerprint`) into a visited set;
//! [`explore::explore`] runs BFS (minimal counterexamples) or DFS over
//! the graph and checks seven invariants (see [`invariants`]): every
//! distinct state gets the cheap step checks — enforced limit ≥ live
//! usage, memory-pool conservation, and valve silence (the agent's
//! safety valve never fires under the honest protocol, so any clamp
//! proves a stale limit reached a cgroup) — while *terminal* states
//! (no enabled choice left) additionally get the quiescence closure:
//! drain the network fault-free, run the retry timers out, then demand
//! no unresolved grant, exact tracked-vs-enforced ack convergence, an
//! ack for every grant the closure sent, and no OOM left parked.
//! Every maximal schedule ends in a terminal state, so the closure
//! checks miss nothing while keeping exploration tractable. A
//! violation yields a replayable [`explore::CounterExample`]
//! whose event script re-runs through the model with live
//! [`escra_metrics::trace::TraceRecorder`]s ([`replay::replay`]) and
//! renders via `render_merged`, plus a [`escra_net::FaultPlan`] analogue
//! for microsim robustness reruns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod explore;
pub mod invariants;
pub mod model;
pub mod replay;

pub use explore::{explore, CounterExample, ExploreResult, Strategy};
pub use invariants::Violation;
pub use model::{Choice, McConfig, Mutation, World};
pub use replay::{replay, Replay};
