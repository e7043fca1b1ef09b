//! A sysbench-style CPU saturation workload (paper Fig. 2).
//!
//! The paper loads one container with sysbench "saturating 1–4 CPUs at
//! any one time" and shows Escra's limit tracking the demand. This module
//! reproduces that demand signal as a deterministic phase schedule.

use escra_simcore::time::{SimDuration, SimTime};
use serde::Serialize;

/// A CPU demand phase: saturate `cores` for `len`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Phase {
    /// Cores of demand during the phase.
    pub cores: f64,
    /// Phase duration.
    pub len: SimDuration,
}

/// A repeating schedule of CPU-saturation phases.
///
/// ```
/// use escra_workloads::sysbench::SysbenchLoad;
/// use escra_simcore::time::SimTime;
///
/// let load = SysbenchLoad::paper_fig2();
/// assert_eq!(load.demand_at(SimTime::ZERO), 1.0);
/// assert!(load.total_len().as_secs_f64() > 30.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SysbenchLoad {
    phases: Vec<Phase>,
}

impl SysbenchLoad {
    /// Creates a schedule from phases.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or any phase has zero length.
    pub fn new(phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "need at least one phase");
        assert!(
            phases.iter().all(|p| !p.len.is_zero() && p.cores >= 0.0),
            "phases must have positive length and non-negative demand"
        );
        SysbenchLoad { phases }
    }

    /// The Fig. 2 schedule: steps through 1 → 3 → 2 → 4 → 1 → 2 cores
    /// over 40 seconds (the figure spans 0–40 000 ms saturating 1–4 CPUs).
    pub fn paper_fig2() -> Self {
        let s = SimDuration::from_secs;
        SysbenchLoad::new(vec![
            Phase {
                cores: 1.0,
                len: s(6),
            },
            Phase {
                cores: 3.0,
                len: s(7),
            },
            Phase {
                cores: 2.0,
                len: s(6),
            },
            Phase {
                cores: 4.0,
                len: s(8),
            },
            Phase {
                cores: 1.0,
                len: s(6),
            },
            Phase {
                cores: 2.0,
                len: s(7),
            },
        ])
    }

    /// Total length of one schedule cycle.
    pub fn total_len(&self) -> SimDuration {
        self.phases
            .iter()
            .fold(SimDuration::ZERO, |acc, p| acc + p.len)
    }

    /// CPU demand (cores) at `t`; the schedule repeats past its end.
    pub fn demand_at(&self, t: SimTime) -> f64 {
        let cycle = self.total_len().as_micros();
        let mut offset = t.as_micros() % cycle.max(1);
        for p in &self.phases {
            if offset < p.len.as_micros() {
                return p.cores;
            }
            offset -= p.len.as_micros();
        }
        self.phases.last().expect("non-empty").cores
    }

    /// CPU work demanded in core-microseconds over `[start, end)`.
    pub fn work_in_us(&self, start: SimTime, end: SimTime) -> f64 {
        debug_assert!(end >= start);
        // Integrate at millisecond resolution (phases are seconds-long).
        let mut total = 0.0;
        let mut t = start;
        let step = SimDuration::from_millis(1);
        while t < end {
            let chunk = step.as_micros().min((end - t).as_micros()) as f64;
            total += self.demand_at(t) * chunk;
            t += step;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_step_in_order() {
        let l = SysbenchLoad::paper_fig2();
        assert_eq!(l.demand_at(SimTime::from_secs(0)), 1.0);
        assert_eq!(l.demand_at(SimTime::from_secs(7)), 3.0);
        assert_eq!(l.demand_at(SimTime::from_secs(14)), 2.0);
        assert_eq!(l.demand_at(SimTime::from_secs(20)), 4.0);
        assert_eq!(l.demand_at(SimTime::from_secs(28)), 1.0);
        assert_eq!(l.demand_at(SimTime::from_secs(36)), 2.0);
    }

    #[test]
    fn schedule_repeats() {
        let l = SysbenchLoad::paper_fig2();
        let cycle = l.total_len();
        assert_eq!(
            l.demand_at(SimTime::from_secs(1)),
            l.demand_at(SimTime::ZERO + cycle + SimDuration::from_secs(1))
        );
    }

    #[test]
    fn work_integrates_demand() {
        let l = SysbenchLoad::new(vec![Phase {
            cores: 2.0,
            len: SimDuration::from_secs(10),
        }]);
        let w = l.work_in_us(SimTime::ZERO, SimTime::from_millis(100));
        assert!((w - 200_000.0).abs() < 1e-6); // 2 cores * 100ms
    }

    #[test]
    fn saturates_one_to_four_cores() {
        let l = SysbenchLoad::paper_fig2();
        let mut min = f64::INFINITY;
        let mut max: f64 = 0.0;
        for s in 0..40 {
            let d = l.demand_at(SimTime::from_secs(s));
            min = min.min(d);
            max = max.max(d);
        }
        assert_eq!(min, 1.0);
        assert_eq!(max, 4.0);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_schedule_panics() {
        SysbenchLoad::new(vec![]);
    }
}
