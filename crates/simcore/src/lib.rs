//! # escra-simcore
//!
//! Deterministic discrete-event simulation core used by every other crate
//! in the Escra reproduction:
//!
//! * [`time`] — integer-microsecond [`time::SimTime`] / [`time::SimDuration`];
//! * [`events`] — a time-ordered [`events::EventQueue`] with FIFO
//!   tie-breaking;
//! * [`rng`] — a seeded, forkable [`rng::SimRng`] with the distributions
//!   the workloads need (uniform, exponential, normal, log-normal);
//! * [`window`] — the sliding-window statistics the Escra Resource
//!   Allocator runs on (paper §IV-D1);
//! * [`histogram`] — HDR-style log-bucketed histograms for latency and
//!   slack CDFs (paper Figs. 5–7);
//! * [`timeseries`] — limit-over-time recorders (paper Figs. 2, 8, 9);
//! * [`stats`] — percentiles and comparison helpers.
//!
//! Everything here is pure and deterministic: no wall-clock time, no
//! global state, every random draw derived from one `u64` seed.
//!
//! ```
//! use escra_simcore::prelude::*;
//!
//! let mut queue = EventQueue::new();
//! queue.push(SimTime::from_millis(100), "period boundary");
//! while let Some((t, event)) = queue.pop() {
//!     assert_eq!(t, SimTime::from_millis(100));
//!     assert_eq!(event, "period boundary");
//! }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod events;
pub mod histogram;
pub mod rng;
pub mod stats;
pub mod time;
pub mod timeseries;
pub mod window;

/// Convenient re-exports of the most used types.
pub mod prelude {
    pub use crate::events::EventQueue;
    pub use crate::histogram::LogHistogram;
    pub use crate::rng::SimRng;
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::timeseries::TimeSeries;
    pub use crate::window::{BitWindow, InlineWindow};
}
