//! Request-rate workload generators (paper §VI-A).
//!
//! The four microservice workloads:
//!
//! * **Fixed** — a constant 400 req/s;
//! * **Exp** — a Poisson process with λ = 300 req/s;
//! * **Burst** — a fixed 50 req/s with a 10-second Poisson burst of
//!   λ = 600 every 20 seconds;
//! * **Alibaba** — a datacenter trace sped up 10×, 56–548 req/s (we ship
//!   a deterministic synthetic trace with that envelope, see
//!   [`crate::trace`]).

use escra_simcore::rng::SimRng;
use escra_simcore::time::{SimDuration, SimTime};
use serde::Serialize;

/// The workload shapes used in the evaluation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum WorkloadKind {
    /// Constant rate, evenly spaced arrivals.
    Fixed {
        /// Requests per second.
        rps: f64,
    },
    /// Poisson arrivals at a fixed rate.
    Exponential {
        /// Rate λ in requests per second.
        lambda: f64,
    },
    /// Base Poisson rate plus periodic bursts.
    Burst {
        /// Baseline rate (req/s).
        base_rps: f64,
        /// Burst rate λ (req/s) during the burst window.
        burst_rps: f64,
        /// Burst duration.
        burst_len: SimDuration,
        /// Time between burst starts.
        burst_interval: SimDuration,
    },
    /// Per-second rates from a trace, cycled if shorter than the run.
    Trace {
        /// Requests per second, one entry per second.
        rates: Vec<f64>,
    },
}

impl WorkloadKind {
    /// The paper's Fixed workload: 400 req/s.
    pub fn paper_fixed() -> Self {
        WorkloadKind::Fixed { rps: 400.0 }
    }

    /// The paper's Exp workload: λ = 300.
    pub fn paper_exp() -> Self {
        WorkloadKind::Exponential { lambda: 300.0 }
    }

    /// The paper's Burst workload: 50 req/s + 10 s bursts of λ = 600
    /// every 20 s.
    pub fn paper_burst() -> Self {
        WorkloadKind::Burst {
            base_rps: 50.0,
            burst_rps: 600.0,
            burst_len: SimDuration::from_secs(10),
            burst_interval: SimDuration::from_secs(20),
        }
    }

    /// Long-run average request rate (req/s) — what a developer sizing
    /// the deployment would estimate from aggregate monitoring. Profiling
    /// runs use a steady stream at this rate, which is precisely how
    /// transient peaks get underestimated (§VI-C).
    pub fn mean_rps(&self) -> f64 {
        match self {
            WorkloadKind::Fixed { rps } => *rps,
            WorkloadKind::Exponential { lambda } => *lambda,
            WorkloadKind::Burst {
                base_rps,
                burst_rps,
                burst_len,
                burst_interval,
            } => {
                let frac = burst_len.as_micros() as f64 / burst_interval.as_micros().max(1) as f64;
                base_rps + burst_rps * frac.min(1.0)
            }
            WorkloadKind::Trace { rates } => {
                if rates.is_empty() {
                    0.0
                } else {
                    rates.iter().sum::<f64>() / rates.len() as f64
                }
            }
        }
    }

    /// Instantaneous target rate at `t` (req/s).
    pub fn rate_at(&self, t: SimTime) -> f64 {
        match self {
            WorkloadKind::Fixed { rps } => *rps,
            WorkloadKind::Exponential { lambda } => *lambda,
            WorkloadKind::Burst {
                base_rps,
                burst_rps,
                burst_len,
                burst_interval,
            } => {
                let phase = t.as_micros() % burst_interval.as_micros().max(1);
                if phase < burst_len.as_micros() {
                    base_rps + burst_rps
                } else {
                    *base_rps
                }
            }
            WorkloadKind::Trace { rates } => {
                if rates.is_empty() {
                    0.0
                } else {
                    rates[(t.as_micros() / 1_000_000) as usize % rates.len()]
                }
            }
        }
    }
}

/// Generates request arrival instants for consecutive, non-overlapping
/// windows.
///
/// ```
/// use escra_workloads::generators::{RequestGenerator, WorkloadKind};
/// use escra_simcore::time::SimTime;
///
/// let mut g = RequestGenerator::new(WorkloadKind::Fixed { rps: 10.0 }, 7);
/// let arrivals = g.arrivals_in(SimTime::ZERO, SimTime::from_secs(1));
/// assert_eq!(arrivals.len(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct RequestGenerator {
    kind: WorkloadKind,
    rng: SimRng,
    /// Deterministic spacing cursor for `Fixed`.
    next_fixed: SimTime,
}

impl RequestGenerator {
    /// Creates a generator; equal seeds give identical arrival streams.
    pub fn new(kind: WorkloadKind, seed: u64) -> Self {
        RequestGenerator {
            kind,
            rng: SimRng::new(seed).fork(0x0067_656e), // "gen"
            next_fixed: SimTime::ZERO,
        }
    }

    /// The workload shape.
    pub fn kind(&self) -> &WorkloadKind {
        &self.kind
    }

    /// Arrival times in the half-open window `[start, end)`, sorted
    /// ascending.
    ///
    /// The window is **half-open**: an arrival landing exactly on a
    /// window boundary belongs to the *later* window and is emitted
    /// exactly once across adjacent calls — callers may tile a run with
    /// windows of arbitrary, heterogeneous sizes (the trace driver does)
    /// without double- or zero-counting boundary arrivals.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn arrivals_in(&mut self, start: SimTime, end: SimTime) -> Vec<SimTime> {
        let mut out = Vec::new();
        self.arrivals_into(start, end, &mut out);
        out
    }

    /// [`RequestGenerator::arrivals_in`] for a caller that asks for many
    /// windows: appends the window's arrivals to `out`, a buffer the
    /// caller keeps.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn arrivals_into(&mut self, start: SimTime, end: SimTime, out: &mut Vec<SimTime>) {
        assert!(end >= start, "window end before start");
        match &self.kind {
            WorkloadKind::Fixed { rps } => {
                let gap = SimDuration::from_secs_f64(1.0 / rps.max(1e-9));
                if self.next_fixed < start {
                    self.next_fixed = start;
                }
                while self.next_fixed < end {
                    out.push(self.next_fixed);
                    self.next_fixed += gap;
                }
            }
            _ => {
                // Piecewise-constant thinning per millisecond chunk keeps
                // burst edges sharp while staying O(arrivals).
                let mut t = start;
                while t < end {
                    let rate = self.kind.rate_at(t);
                    if rate > 0.0 {
                        // Sample the next exponential gap at this rate.
                        let gap = self.rng.exponential(rate);
                        let next = t + SimDuration::from_secs_f64(gap);
                        if next < end {
                            out.push(next);
                        }
                        t = next;
                    } else {
                        t += SimDuration::from_millis(10);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_is_evenly_spaced_across_windows() {
        let mut g = RequestGenerator::new(WorkloadKind::Fixed { rps: 100.0 }, 1);
        let mut all = Vec::new();
        for i in 0..10 {
            all.extend(g.arrivals_in(
                SimTime::from_millis(i * 100),
                SimTime::from_millis((i + 1) * 100),
            ));
        }
        assert_eq!(all.len(), 100);
        for pair in all.windows(2) {
            assert_eq!(pair[1] - pair[0], SimDuration::from_millis(10));
        }
    }

    #[test]
    fn poisson_rate_is_close() {
        let mut g = RequestGenerator::new(WorkloadKind::paper_exp(), 2);
        let arrivals = g.arrivals_in(SimTime::ZERO, SimTime::from_secs(30));
        let rate = arrivals.len() as f64 / 30.0;
        assert!((rate - 300.0).abs() < 15.0, "rate {rate}");
    }

    #[test]
    fn burst_profile_rates() {
        let w = WorkloadKind::paper_burst();
        assert_eq!(w.rate_at(SimTime::from_secs(5)), 650.0); // in burst
        assert_eq!(w.rate_at(SimTime::from_secs(15)), 50.0); // between
        assert_eq!(w.rate_at(SimTime::from_secs(25)), 650.0); // next burst
    }

    #[test]
    fn burst_generates_more_during_burst() {
        let mut g = RequestGenerator::new(WorkloadKind::paper_burst(), 3);
        let in_burst = g
            .arrivals_in(SimTime::from_secs(0), SimTime::from_secs(10))
            .len();
        let out_burst = g
            .arrivals_in(SimTime::from_secs(10), SimTime::from_secs(20))
            .len();
        assert!(in_burst as f64 > 8.0 * out_burst as f64);
    }

    #[test]
    fn trace_cycles() {
        let w = WorkloadKind::Trace {
            rates: vec![10.0, 20.0],
        };
        assert_eq!(w.rate_at(SimTime::from_secs(0)), 10.0);
        assert_eq!(w.rate_at(SimTime::from_secs(1)), 20.0);
        assert_eq!(w.rate_at(SimTime::from_secs(2)), 10.0);
    }

    #[test]
    fn determinism_across_instances() {
        let mut a = RequestGenerator::new(WorkloadKind::paper_exp(), 9);
        let mut b = RequestGenerator::new(WorkloadKind::paper_exp(), 9);
        assert_eq!(
            a.arrivals_in(SimTime::ZERO, SimTime::from_secs(2)),
            b.arrivals_in(SimTime::ZERO, SimTime::from_secs(2))
        );
    }

    #[test]
    fn arrivals_sorted_and_in_window() {
        let mut g = RequestGenerator::new(WorkloadKind::paper_burst(), 11);
        let start = SimTime::from_secs(3);
        let end = SimTime::from_secs(7);
        let arrivals = g.arrivals_in(start, end);
        let mut last = start;
        for a in arrivals {
            assert!(a >= last && a < end);
            last = a;
        }
    }

    /// Regression pin for the half-open `[start, end)` contract: a
    /// deterministic arrival landing exactly on a shared window boundary
    /// must be emitted exactly once, by the *later* window, for windows
    /// of heterogeneous sizes.
    #[test]
    fn boundary_arrival_emitted_exactly_once_across_heterogeneous_windows() {
        // gap = 250 ms, so arrivals land at 0, 250, 500, 750, 1000, ...
        let mut g = RequestGenerator::new(WorkloadKind::Fixed { rps: 4.0 }, 1);
        // Window edges at 500 ms and 750 ms coincide exactly with
        // arrivals; window sizes are deliberately unequal.
        let w1 = g.arrivals_in(SimTime::ZERO, SimTime::from_millis(500));
        let w2 = g.arrivals_in(SimTime::from_millis(500), SimTime::from_millis(750));
        let w3 = g.arrivals_in(SimTime::from_millis(750), SimTime::from_secs(2));
        assert_eq!(w1, vec![SimTime::ZERO, SimTime::from_millis(250)]);
        // The arrival at exactly 500 ms is excluded from [0, 500) and
        // emitted once by [500, 750).
        assert_eq!(w2, vec![SimTime::from_millis(500)]);
        assert_eq!(
            w3,
            (3..8)
                .map(|i| SimTime::from_millis(i * 250))
                .collect::<Vec<_>>()
        );
        // Exactly once overall: 8 arrivals in [0, 2 s), no duplicates.
        let mut all = [w1, w2, w3].concat();
        let n = all.len();
        all.dedup();
        assert_eq!(all.len(), n, "boundary arrival double-counted");
        assert_eq!(n, 8, "boundary arrival lost");
    }

    /// The same contract for the stochastic paths: every arrival strictly
    /// inside its half-open window, and the aggregate rate over a tiling
    /// of heterogeneous windows is preserved (double/zero-counting at the
    /// seams would skew it).
    #[test]
    fn stochastic_heterogeneous_windows_preserve_rate_and_stay_half_open() {
        let mut g = RequestGenerator::new(WorkloadKind::paper_exp(), 5);
        let sizes_ms = [100u64, 250, 70, 1_000, 330, 500];
        let mut t = SimTime::ZERO;
        let mut total = 0usize;
        let mut elapsed_ms = 0u64;
        let mut i = 0usize;
        while elapsed_ms < 30_000 {
            let size = sizes_ms[i % sizes_ms.len()];
            let end = t + SimDuration::from_millis(size);
            for a in g.arrivals_in(t, end) {
                assert!(a >= t && a < end, "arrival {a:?} outside [{t:?}, {end:?})");
                total += 1;
            }
            t = end;
            elapsed_ms += size;
            i += 1;
        }
        let rate = total as f64 / (elapsed_ms as f64 / 1_000.0);
        assert!(
            (rate - 300.0).abs() < 15.0,
            "tiled-window rate {rate} drifted from λ = 300"
        );
    }

    #[test]
    fn arrivals_into_appends_what_arrivals_in_returns() {
        let kinds = [
            WorkloadKind::Fixed { rps: 37.0 },
            WorkloadKind::paper_exp(),
            WorkloadKind::paper_burst(),
            WorkloadKind::Trace {
                rates: vec![0.0, 120.0, 40.0],
            },
        ];
        for kind in kinds {
            let mut by_value = RequestGenerator::new(kind.clone(), 3);
            let mut by_buffer = by_value.clone();
            // A buffer that already holds an entry keeps it.
            let mut buf = vec![SimTime::MAX];
            let mut t = SimTime::ZERO;
            for ms in [100u64, 250, 0, 70, 1_000, 330, 2_500] {
                let end = t + SimDuration::from_millis(ms);
                let want = by_value.arrivals_in(t, end);
                buf.truncate(1);
                by_buffer.arrivals_into(t, end, &mut buf);
                assert_eq!(buf[0], SimTime::MAX, "{kind:?}");
                assert_eq!(&buf[1..], &want[..], "{kind:?}");
                t = end;
            }
        }
    }

    #[test]
    fn empty_trace_is_silent() {
        let mut g = RequestGenerator::new(WorkloadKind::Trace { rates: vec![] }, 1);
        assert!(g
            .arrivals_in(SimTime::ZERO, SimTime::from_secs(1))
            .is_empty());
    }
}
