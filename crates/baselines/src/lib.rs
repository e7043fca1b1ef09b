//! # escra-baselines
//!
//! The allocation policies Escra is compared against in the paper's
//! evaluation:
//!
//! * [`static_alloc`] — common practice: fixed limits at
//!   `factor × profiled peak` (0.75× / 1.0× / 1.5×, §VI-B);
//! * [`autopilot`] — a recreation of Google Autopilot's moving-window +
//!   multi-armed-bandit recommender (§VI-A), with a configurable update
//!   period for the 1 s / 10 s / 30 s / 60 s sensitivity study;
//! * [`vpa`] — a Kubernetes VPA-style threshold autoscaler whose updates
//!   require container restarts and are rate-limited to one per minute
//!   (§II);
//! * [`tiny_autoscaler`] — a per-function window-percentile CPU
//!   predictor in the spirit of "tiny autoscalers for tiny workloads"
//!   (Zhao & Uta): VPA imitated at function granularity with a short
//!   history and configurable percentile/headroom;
//! * [`arc_v`] — ARC-V-style phase-aware vertical scaling: in-place
//!   limit raises/shrinks gated by the observed utilization slope and a
//!   cooldown;
//! * [`types`] — the [`types::PeriodicScaler`] trait and shared
//!   recommendation/profile types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arc_v;
pub mod autopilot;
pub mod static_alloc;
pub mod tiny_autoscaler;
pub mod types;
pub mod vpa;

pub use arc_v::{ArcVConfig, ArcVScaler};
pub use autopilot::{Arm, AutopilotConfig, AutopilotScaler};
pub use static_alloc::StaticPolicy;
pub use tiny_autoscaler::{TinyAutoscaler, TinyAutoscalerConfig};
pub use types::{
    validate_observation, validate_update_period, ContainerProfile, LimitUpdate, PeriodicScaler,
    UsageSample,
};
pub use vpa::{VpaConfig, VpaScaler};
