//! Fluid FIFO queue processing.
//!
//! Each container is modelled as a FIFO queue server whose service rate
//! during a CFS period is `grant / period` cores — the CPU the CFS
//! bandwidth controller and node arbitration actually gave it. Requests
//! drain in order with sub-period completion times, so throttling turns
//! directly into queueing delay and tail latency, the paper's central
//! performance effect.

use escra_simcore::time::{ceil_u64, SimDuration, SimTime};
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
    let mut completions = Vec::new();
    let consumed_us = drain_fifo_into(
        queue,
        period_start,
        period_end,
        rate_cores,
        budget_us,
        &mut completions,
    );
    DrainOutcome {
        consumed_us,
        completions,
    }
}

/// [`drain_fifo`] for a caller that drains many queues a period: appends
/// the `(request, completion_time)` pairs to `completions`, a buffer the
/// caller keeps, and returns the CPU consumed in core-microseconds.
pub fn drain_fifo_into(
    queue: &mut VecDeque<StageJob>,
    period_start: SimTime,
    period_end: SimTime,
    rate_cores: f64,
    budget_us: f64,
    completions: &mut Vec<(usize, SimTime)>,
) -> f64 {
    let mut consumed_us = 0.0;
    let period_us = (period_end - period_start).as_micros() as f64;
    if period_us <= 0.0 || budget_us <= 0.0 || rate_cores <= 0.0 {
        return consumed_us;
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
            let completion = start + SimDuration::from_micros(ceil_u64(need_time_us));
            consumed_us += front.remaining_us;
            budget -= front.remaining_us;
            completions.push((front.request, completion.min(period_end)));
            cursor = completion;
            queue.pop_front();
            if budget <= 1e-9 {
                break; // throttled at the instant the budget ran out
            }
        } else {
            front.remaining_us -= doable;
            consumed_us += doable;
            break;
        }
    }
    debug_assert!(consumed_us <= budget_us + 1e-6);
    consumed_us
}

/// The CPU a container asks its node for: its queued work plus
/// `startup_us`, capped at `potential` — `(Σ remaining_us +
/// startup_us).min(potential)` to the bit, without walking the queue
/// past the prefix that reaches the cap.
///
/// Stopping early is exact: no job holds negative work, and adding a
/// non-negative term never lowers an IEEE sum, so once a prefix plus
/// `startup_us` has reached `potential` the whole queue's has too and
/// `min` returns `potential`.
pub fn capped_demand_us(queue: &VecDeque<StageJob>, startup_us: f64, potential: f64) -> f64 {
    let mut sum = 0.0;
    for job in queue {
        debug_assert!(job.remaining_us >= 0.0, "negative work queued");
        sum += job.remaining_us;
        if sum + startup_us >= potential {
            return potential;
        }
    }
    (sum + startup_us).min(potential)
}

/// Whether the queued work, `Σ remaining_us`, exceeds `threshold_us` —
/// decided at the first prefix that does (a later non-negative term
/// cannot bring an IEEE sum back under it).
pub fn backlog_exceeds(queue: &VecDeque<StageJob>, threshold_us: f64) -> bool {
    let mut sum = 0.0;
    queue.iter().any(|job| {
        sum += job.remaining_us;
        sum > threshold_us
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Total queued work: the whole-queue sum [`capped_demand_us`] and
    /// [`backlog_exceeds`] stop short of.
    fn backlog_us(queue: &VecDeque<StageJob>) -> f64 {
        queue.iter().map(|j| j.remaining_us).sum()
    }

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

    /// A queue from `(kind, work)` draws: zero-work, denormal-scale and
    /// overflow-scale jobs among ordinary ones.
    fn queue_of(jobs: &[(u8, f64)]) -> VecDeque<StageJob> {
        jobs.iter()
            .enumerate()
            .map(|(i, &(kind, work))| {
                let remaining_us = match kind {
                    0 => 0.0,
                    1 => 1e-300,
                    2 => 1e300,
                    _ => work,
                };
                job(i, remaining_us, 100 + (i as u64 % 7) * 20)
            })
            .collect()
    }

    /// Every partial sum of the queue, the empty prefix included.
    fn prefix_sums(queue: &VecDeque<StageJob>) -> Vec<f64> {
        let mut sum = 0.0;
        std::iter::once(0.0)
            .chain(queue.iter().map(|j| {
                sum += j.remaining_us;
                sum
            }))
            .collect()
    }

    proptest! {
        #[test]
        fn capped_demand_is_the_whole_queue_expression_to_the_bit(
            jobs in proptest::collection::vec((0u8..12, 0.0f64..50_000.0), 0..40),
            warm in any::<bool>(),
            startup in 1.0f64..90_000.0,
            pick in 0usize..64,
            scale in 0.0f64..1.5,
            exact in any::<bool>(),
        ) {
            let queue = queue_of(&jobs);
            let startup_us = if warm { startup } else { 0.0 };
            // A potential on a prefix boundary (where the early exit
            // decides by equality) or scaled below / into / above the sum.
            let sums = prefix_sums(&queue);
            let at = sums[pick % sums.len()] + startup_us;
            let potential = if exact { at } else { at * scale };
            let want = (backlog_us(&queue) + startup_us).min(potential);
            let got = capped_demand_us(&queue, startup_us, potential);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "{got} vs {want}");
        }

        #[test]
        fn backlog_exceeds_is_the_whole_queue_comparison(
            jobs in proptest::collection::vec((0u8..12, 0.0f64..3.0), 0..40),
            pick in 0usize..64,
            at_prefix in any::<bool>(),
        ) {
            let queue = queue_of(&jobs);
            let sums = prefix_sums(&queue);
            let threshold = if at_prefix { sums[pick % sums.len()] } else { 1.0 };
            prop_assert_eq!(backlog_exceeds(&queue, threshold), backlog_us(&queue) > threshold);
        }

        #[test]
        fn drain_fifo_into_appends_what_drain_fifo_returns(
            jobs in proptest::collection::vec((0u8..12, 0.0f64..50_000.0), 0..40),
            rate in 0.0f64..8.0,
            budget in 0.0f64..400_000.0,
            kept in 0usize..4,
        ) {
            let (s, e) = period();
            let mut by_value = queue_of(&jobs);
            let mut by_buffer = by_value.clone();
            let out = drain_fifo(&mut by_value, s, e, rate, budget);
            // A buffer that already holds entries keeps them.
            let stale: Vec<(usize, SimTime)> = (0..kept).map(|i| (i, s)).collect();
            let mut completions = stale.clone();
            let consumed = drain_fifo_into(&mut by_buffer, s, e, rate, budget, &mut completions);
            prop_assert_eq!(consumed.to_bits(), out.consumed_us.to_bits());
            prop_assert_eq!(&completions[..kept], &stale[..]);
            prop_assert_eq!(&completions[kept..], &out.completions[..]);
            prop_assert_eq!(by_buffer, by_value);
        }
    }
}
