//! Fluid FIFO queue processing.
//!
//! Each container is modelled as a FIFO queue server whose service rate
//! during a CFS period is `grant / period` cores — the CPU the CFS
//! bandwidth controller and node arbitration actually gave it. Requests
//! drain in order with sub-period completion times, so throttling turns
//! directly into queueing delay and tail latency, the paper's central
//! performance effect.

use escra_simcore::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// One request-stage waiting in a container's queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageJob {
    /// Index of the request in the run's request table.
    pub request: usize,
    /// Remaining CPU work for this stage, in core-microseconds.
    pub remaining_us: f64,
    /// When the stage arrived at this container.
    pub queued_at: SimTime,
}

/// Result of draining one container for one period.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DrainOutcome {
    /// CPU actually consumed, in core-microseconds (≤ the grant).
    pub consumed_us: f64,
    /// `(request, completion_time)` for stages that finished.
    pub completions: Vec<(usize, SimTime)>,
}

/// Drains `queue` in FIFO order over `[period_start, period_end)`.
///
/// The container executes at `rate_cores` (its thread-pool speed) until
/// it has consumed `budget_us` core-microseconds — the CFS grant — and
/// is then throttled for the rest of the period, exactly like CFS
/// bandwidth control: a tight quota does not slow individual requests,
/// it caps how much total work a period may do.
///
/// Jobs whose `queued_at` lies inside the period begin no earlier than
/// their arrival. Unfinished work stays queued for the next period.
/// The consumed work never exceeds `budget_us`.
pub fn drain_fifo(
    queue: &mut VecDeque<StageJob>,
    period_start: SimTime,
    period_end: SimTime,
    rate_cores: f64,
    budget_us: f64,
) -> DrainOutcome {
    let mut out = DrainOutcome::default();
    let period_us = (period_end - period_start).as_micros() as f64;
    if period_us <= 0.0 || budget_us <= 0.0 || rate_cores <= 0.0 {
        return out;
    }
    let mut budget = budget_us;
    let mut cursor = period_start;
    while let Some(front) = queue.front_mut() {
        let start = if front.queued_at > cursor {
            front.queued_at
        } else {
            cursor
        };
        if start >= period_end {
            break;
        }
        let avail_us = (period_end - start).as_micros() as f64;
        // Work doable before the period ends or the budget runs out.
        let doable = (avail_us * rate_cores).min(budget);
        if front.remaining_us <= doable {
            let need_time_us = front.remaining_us / rate_cores;
            let completion = start + SimDuration::from_micros(need_time_us.ceil() as u64);
            out.consumed_us += front.remaining_us;
            budget -= front.remaining_us;
            out.completions
                .push((front.request, completion.min(period_end)));
            cursor = completion;
            queue.pop_front();
            if budget <= 1e-9 {
                break; // throttled at the instant the budget ran out
            }
        } else {
            front.remaining_us -= doable;
            out.consumed_us += doable;
            break;
        }
    }
    debug_assert!(out.consumed_us <= budget_us + 1e-6);
    out
}

/// Total queued work in core-microseconds.
pub fn backlog_us(queue: &VecDeque<StageJob>) -> f64 {
    queue.iter().map(|j| j.remaining_us).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(request: usize, remaining_us: f64, queued_ms: u64) -> StageJob {
        StageJob {
            request,
            remaining_us,
            queued_at: SimTime::from_millis(queued_ms),
        }
    }

    fn period() -> (SimTime, SimTime) {
        (SimTime::from_millis(100), SimTime::from_millis(200))
    }

    #[test]
    fn completes_within_grant() {
        let (s, e) = period();
        // 1 core rate, two 30ms jobs queued before the period.
        let mut q: VecDeque<StageJob> = [job(0, 30_000.0, 0), job(1, 30_000.0, 0)].into();
        let out = drain_fifo(&mut q, s, e, 1.0, 100_000.0);
        assert_eq!(out.completions.len(), 2);
        assert_eq!(out.completions[0].1, SimTime::from_millis(130));
        assert_eq!(out.completions[1].1, SimTime::from_millis(160));
        assert!((out.consumed_us - 60_000.0).abs() < 1e-6);
        assert!(q.is_empty());
    }

    #[test]
    fn partial_progress_carries_over() {
        let (s, e) = period();
        let mut q: VecDeque<StageJob> = [job(0, 250_000.0, 0)].into();
        let out = drain_fifo(&mut q, s, e, 1.0, 100_000.0);
        assert!(out.completions.is_empty());
        assert!((out.consumed_us - 100_000.0).abs() < 1e-6);
        assert!((q[0].remaining_us - 150_000.0).abs() < 1e-6);
    }

    #[test]
    fn mid_period_arrival_waits_for_its_time() {
        let (s, e) = period();
        // Arrives at 150ms; 25ms of work at 1 core -> completes at 175ms.
        let mut q: VecDeque<StageJob> = [job(0, 25_000.0, 150)].into();
        let out = drain_fifo(&mut q, s, e, 1.0, 100_000.0);
        assert_eq!(out.completions, vec![(0, SimTime::from_millis(175))]);
        assert!((out.consumed_us - 25_000.0).abs() < 1e-6);
    }

    #[test]
    fn arrival_after_period_is_untouched() {
        let (s, e) = period();
        let mut q: VecDeque<StageJob> = [job(0, 10_000.0, 500)].into();
        let out = drain_fifo(&mut q, s, e, 1.0, 100_000.0);
        assert!(out.completions.is_empty());
        assert_eq!(out.consumed_us, 0.0);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn zero_grant_processes_nothing() {
        let (s, e) = period();
        let mut q: VecDeque<StageJob> = [job(0, 10_000.0, 0)].into();
        let out = drain_fifo(&mut q, s, e, 1.0, 0.0);
        assert_eq!(out, DrainOutcome::default());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn slower_rate_stretches_completion() {
        let (s, e) = period();
        // 0.5 cores: 30ms of work takes 60ms of wall time.
        let mut q: VecDeque<StageJob> = [job(0, 30_000.0, 100)].into();
        let out = drain_fifo(&mut q, s, e, 0.5, 50_000.0);
        assert_eq!(out.completions[0].1, SimTime::from_millis(160));
    }

    #[test]
    fn conservation_under_random_load() {
        let mut rng = escra_simcore::rng::SimRng::new(3);
        for _ in 0..200 {
            let mut q: VecDeque<StageJob> = (0..10)
                .map(|i| job(i, rng.uniform(1_000.0, 80_000.0), 100 + rng.next_below(100)))
                .collect();
            let before = backlog_us(&q);
            let grant = rng.uniform(0.0, 200_000.0);
            let (s, e) = period();
            let out = drain_fifo(&mut q, s, e, 2.0, grant);
            let after = backlog_us(&q);
            assert!(out.consumed_us <= grant + 1e-6);
            assert!((before - after - out.consumed_us).abs() < 1e-3);
            // Completions are time-ordered within the period.
            let mut last = s;
            for (_, t) in &out.completions {
                assert!(*t >= last && *t <= e);
                last = *t;
            }
        }
    }

    #[test]
    fn budget_exhaustion_throttles_mid_period() {
        // 8-core burst speed, but only 20ms of quota budget: the first
        // two 10ms jobs finish fast, the third is throttled untouched.
        let (s, e) = period();
        let mut q: VecDeque<StageJob> = [
            job(0, 10_000.0, 0),
            job(1, 10_000.0, 0),
            job(2, 10_000.0, 0),
        ]
        .into();
        let out = drain_fifo(&mut q, s, e, 8.0, 20_000.0);
        assert_eq!(out.completions.len(), 2);
        assert!(out.completions[1].1 <= SimTime::from_millis(103));
        assert!((out.consumed_us - 20_000.0).abs() < 1e-6);
        assert_eq!(q.len(), 1);
    }
}
