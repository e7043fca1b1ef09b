//! # escra-cfs
//!
//! A faithful, deterministic model of the two Linux kernel mechanisms the
//! Escra paper instruments with kernel hooks (paper §IV-B):
//!
//! * [`cpu`] — CFS bandwidth control: per-cgroup quota/period runtime
//!   accounting, throttling, and the per-period telemetry hook
//!   ([`cpu::CpuPeriodStats`]) that streams quota / unused runtime /
//!   throttled to the Escra Controller;
//! * [`memory`] — the memory cgroup with a trappable `try_charge()`:
//!   a charge that would exceed the limit yields
//!   [`memory::ChargeOutcome::WouldOom`] *before* any kill, which is the
//!   event Escra uses to grow a container instead of OOM-killing it;
//! * [`node`] — node-level max–min fair CPU arbitration among cgroups,
//!   standing in for the CFS run-queue when a node is oversubscribed.
//!
//! The real system patches Linux 4.20 (~1.5 kSLOC across six modules);
//! this crate reproduces the *semantics* those hooks expose, which is all
//! the Escra control plane consumes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cpu;
pub mod memory;
pub mod node;

pub use cpu::{CpuBandwidth, CpuPeriodStats, DEFAULT_PERIOD, MIN_QUOTA_CORES};
pub use memory::{ChargeOutcome, MemCgroup, MIB, PAGE_BYTES};
