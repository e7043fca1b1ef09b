//! Deterministic fault injection for the control-plane network.
//!
//! A [`FaultPlan`] describes an imperfect network: independent message
//! loss, duplication, latency spikes, and timed partitions between
//! [`Addr`] pairs. A [`FaultInjector`] turns the plan into per-message
//! [`FaultDecision`]s, drawing from its own forked [`SimRng`] stream so
//! that (a) same-seed runs are bit-reproducible and (b) the empty plan
//! ([`FaultPlan::none`]) consumes **zero** random draws — a faultless
//! run through the injector is byte-identical to one without it.

use crate::fabric::Addr;
use escra_metrics::trace::{NoopSink, TraceEventKind, TraceSink};
use escra_simcore::rng::SimRng;
use escra_simcore::time::{SimDuration, SimTime};
use serde::Serialize;

/// A timed bidirectional partition between two endpoints: messages in
/// either direction are dropped while `start <= now < end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Partition {
    /// One side of the severed link.
    pub a: Addr,
    /// The other side.
    pub b: Addr,
    /// Partition onset (inclusive).
    pub start: SimTime,
    /// Partition healing time (exclusive).
    pub end: SimTime,
}

impl Partition {
    /// Whether this partition severs a `from → to` send at `now`.
    fn severs(&self, from: Addr, to: Addr, now: SimTime) -> bool {
        let pair_matches = (self.a == from && self.b == to) || (self.a == to && self.b == from);
        pair_matches && now >= self.start && now < self.end
    }
}

/// The fault model applied to every message on a network.
///
/// Probabilities are independent per message. `FaultPlan::none()` (the
/// default) is guaranteed to be a no-op: no random draws, no drops, no
/// extra delay — so enabling the machinery cannot perturb a faultless
/// run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Probability a message is silently dropped.
    pub drop_probability: f64,
    /// Probability a message is delivered twice.
    pub duplicate_probability: f64,
    /// Probability a message suffers an extra delay spike.
    pub delay_spike_probability: f64,
    /// The extra delay added when a spike hits.
    pub delay_spike: SimDuration,
    /// Timed partitions; a severed message is dropped regardless of the
    /// probabilities above.
    pub partitions: Vec<Partition>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: deliver everything exactly once, on time.
    pub fn none() -> Self {
        FaultPlan {
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            delay_spike_probability: 0.0,
            delay_spike: SimDuration::ZERO,
            partitions: Vec::new(),
        }
    }

    /// True when the plan can never affect a message.
    pub fn is_none(&self) -> bool {
        self.drop_probability <= 0.0
            && self.duplicate_probability <= 0.0
            && (self.delay_spike_probability <= 0.0 || self.delay_spike.is_zero())
            && self.partitions.is_empty()
    }

    /// Sets the drop probability (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability must be in [0,1]"
        );
        self.drop_probability = p;
        self
    }

    /// Sets the duplicate probability (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_duplicates(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplicate probability must be in [0,1]"
        );
        self.duplicate_probability = p;
        self
    }

    /// Sets the delay-spike probability and magnitude (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_delay_spikes(mut self, p: f64, extra: SimDuration) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "spike probability must be in [0,1]"
        );
        self.delay_spike_probability = p;
        self.delay_spike = extra;
        self
    }

    /// Adds a timed bidirectional partition between `a` and `b`
    /// (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `end <= start`.
    pub fn with_partition(mut self, a: Addr, b: Addr, start: SimTime, end: SimTime) -> Self {
        assert!(end > start, "partition must have positive duration");
        self.partitions.push(Partition { a, b, start, end });
        self
    }
}

/// What the injector decided for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// The message never arrives.
    Drop,
    /// Deliver `copies` copies (1 = normal, 2 = duplicated), each with
    /// `extra_delay` added on top of the network's own latency.
    Deliver {
        /// Number of delivered copies (≥ 1).
        copies: u32,
        /// Extra delay from a spike (zero when no spike hit).
        extra_delay: SimDuration,
    },
}

impl FaultDecision {
    /// The pass-through decision.
    pub const CLEAN: FaultDecision = FaultDecision::Deliver {
        copies: 1,
        extra_delay: SimDuration::ZERO,
    };
}

/// Counters of injected faults, for experiment reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct FaultStats {
    /// Messages dropped by the loss probability.
    pub dropped: u64,
    /// Messages dropped by an active partition.
    pub partitioned: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages hit by a delay spike.
    pub delayed: u64,
}

/// Applies a [`FaultPlan`] to a message stream, deterministically.
///
/// The injector owns a dedicated RNG fork, independent of any latency
/// RNG, and consumes draws **only when the plan is non-empty** — so a
/// `FaultPlan::none()` injector never changes the embedding's random
/// sequence.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SimRng,
    stats: FaultStats,
}

impl FaultInjector {
    /// Creates an injector for `plan`, forking a dedicated RNG stream
    /// from `seed`.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        FaultInjector {
            plan,
            rng: SimRng::new(seed).fork(0x0066_6175_6c74), // "fault"
            stats: FaultStats::default(),
        }
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Injection counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Decides the fate of one `from → to` message sent at `now`.
    pub fn decide(&mut self, now: SimTime, from: Addr, to: Addr) -> FaultDecision {
        self.decide_traced(now, from, to, &mut NoopSink)
    }

    /// Like [`FaultInjector::decide`], recording each injected fault
    /// (drop, duplicate, delay spike) into `sink`. Clean deliveries emit
    /// nothing; the decision itself is identical to `decide` — tracing
    /// never consumes RNG draws.
    pub fn decide_traced<S: TraceSink>(
        &mut self,
        now: SimTime,
        from: Addr,
        to: Addr,
        sink: &mut S,
    ) -> FaultDecision {
        if self.plan.is_none() {
            return FaultDecision::CLEAN;
        }
        if self.plan.partitions.iter().any(|p| p.severs(from, to, now)) {
            self.stats.partitioned += 1;
            if S::ENABLED {
                sink.emit(
                    now,
                    TraceEventKind::FaultDrop {
                        from: from.as_u64(),
                        to: to.as_u64(),
                        partitioned: true,
                    },
                );
            }
            return FaultDecision::Drop;
        }
        if self.plan.drop_probability > 0.0 && self.rng.chance(self.plan.drop_probability) {
            self.stats.dropped += 1;
            if S::ENABLED {
                sink.emit(
                    now,
                    TraceEventKind::FaultDrop {
                        from: from.as_u64(),
                        to: to.as_u64(),
                        partitioned: false,
                    },
                );
            }
            return FaultDecision::Drop;
        }
        let copies = if self.plan.duplicate_probability > 0.0
            && self.rng.chance(self.plan.duplicate_probability)
        {
            self.stats.duplicated += 1;
            if S::ENABLED {
                sink.emit(
                    now,
                    TraceEventKind::FaultDuplicate {
                        from: from.as_u64(),
                        to: to.as_u64(),
                    },
                );
            }
            2
        } else {
            1
        };
        let extra_delay = if self.plan.delay_spike_probability > 0.0
            && !self.plan.delay_spike.is_zero()
            && self.rng.chance(self.plan.delay_spike_probability)
        {
            self.stats.delayed += 1;
            if S::ENABLED {
                sink.emit(
                    now,
                    TraceEventKind::FaultDelay {
                        from: from.as_u64(),
                        to: to.as_u64(),
                        extra_us: self.plan.delay_spike.as_micros(),
                    },
                );
            }
            self.plan.delay_spike
        } else {
            SimDuration::ZERO
        };
        FaultDecision::Deliver {
            copies,
            extra_delay,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(raw: u64) -> Addr {
        Addr::from_raw(raw)
    }

    #[test]
    fn none_plan_is_clean_and_rng_neutral() {
        let mut inj = FaultInjector::new(FaultPlan::none(), 7);
        let rng_before = format!("{:?}", inj.rng);
        for i in 0..1000 {
            assert_eq!(
                inj.decide(SimTime::from_millis(i), addr(0), addr(1)),
                FaultDecision::CLEAN
            );
        }
        assert_eq!(format!("{:?}", inj.rng), rng_before, "no draws consumed");
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut inj = FaultInjector::new(FaultPlan::none().with_loss(1.0), 7);
        for i in 0..100 {
            assert_eq!(
                inj.decide(SimTime::from_millis(i), addr(0), addr(1)),
                FaultDecision::Drop
            );
        }
        assert_eq!(inj.stats().dropped, 100);
    }

    #[test]
    fn partition_severs_both_directions_within_window() {
        let plan = FaultPlan::none().with_partition(
            addr(0),
            addr(1),
            SimTime::from_secs(1),
            SimTime::from_secs(3),
        );
        let mut inj = FaultInjector::new(plan, 7);
        assert_eq!(
            inj.decide(SimTime::from_millis(500), addr(0), addr(1)),
            FaultDecision::CLEAN
        );
        assert_eq!(
            inj.decide(SimTime::from_secs(1), addr(0), addr(1)),
            FaultDecision::Drop
        );
        assert_eq!(
            inj.decide(SimTime::from_secs(2), addr(1), addr(0)),
            FaultDecision::Drop
        );
        // Other pairs unaffected.
        assert_eq!(
            inj.decide(SimTime::from_secs(2), addr(0), addr(2)),
            FaultDecision::CLEAN
        );
        // Healed.
        assert_eq!(
            inj.decide(SimTime::from_secs(3), addr(0), addr(1)),
            FaultDecision::CLEAN
        );
        assert_eq!(inj.stats().partitioned, 2);
    }

    #[test]
    fn duplicates_and_spikes_are_reported() {
        let plan = FaultPlan::none()
            .with_duplicates(1.0)
            .with_delay_spikes(1.0, SimDuration::from_secs(1));
        let mut inj = FaultInjector::new(plan, 7);
        assert_eq!(
            inj.decide(SimTime::ZERO, addr(0), addr(1)),
            FaultDecision::Deliver {
                copies: 2,
                extra_delay: SimDuration::from_secs(1)
            }
        );
        assert_eq!(inj.stats().duplicated, 1);
        assert_eq!(inj.stats().delayed, 1);
    }

    #[test]
    fn same_seed_same_decisions() {
        let plan = FaultPlan::none()
            .with_loss(0.3)
            .with_duplicates(0.2)
            .with_delay_spikes(0.1, SimDuration::from_millis(200));
        let mut a = FaultInjector::new(plan.clone(), 99);
        let mut b = FaultInjector::new(plan, 99);
        for i in 0..1000 {
            let now = SimTime::from_millis(i);
            assert_eq!(
                a.decide(now, addr(i % 3), addr(3)),
                b.decide(now, addr(i % 3), addr(3))
            );
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn loss_rate_is_roughly_honoured() {
        let mut inj = FaultInjector::new(FaultPlan::none().with_loss(0.1), 1234);
        let mut drops = 0;
        for i in 0..10_000 {
            if inj.decide(SimTime::from_millis(i), addr(0), addr(1)) == FaultDecision::Drop {
                drops += 1;
            }
        }
        let rate = drops as f64 / 10_000.0;
        assert!((0.07..0.13).contains(&rate), "observed loss rate {rate}");
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn invalid_loss_rejected() {
        let _ = FaultPlan::none().with_loss(1.5);
    }

    #[test]
    fn traced_decisions_match_untraced_and_record_faults() {
        use escra_metrics::trace::TraceRecorder;
        let plan = FaultPlan::none()
            .with_loss(0.3)
            .with_duplicates(0.2)
            .with_delay_spikes(0.1, SimDuration::from_millis(200))
            .with_partition(addr(0), addr(1), SimTime::ZERO, SimTime::from_millis(50));
        let mut plain = FaultInjector::new(plan.clone(), 42);
        let mut traced = FaultInjector::new(plan, 42);
        let mut rec = TraceRecorder::with_capacity(4096);
        for i in 0..1000 {
            let now = SimTime::from_millis(i);
            assert_eq!(
                plain.decide(now, addr(i % 3), addr(3 - (i % 2))),
                traced.decide_traced(now, addr(i % 3), addr(3 - (i % 2)), &mut rec)
            );
        }
        let stats = traced.stats();
        assert_eq!(stats, plain.stats(), "tracing never consumes RNG draws");
        let events: Vec<_> = rec.iter().collect();
        let drops = events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::FaultDrop { .. }))
            .count() as u64;
        let dups = events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::FaultDuplicate { .. }))
            .count() as u64;
        let delays = events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::FaultDelay { .. }))
            .count() as u64;
        assert_eq!(drops, stats.dropped + stats.partitioned);
        assert_eq!(dups, stats.duplicated);
        assert_eq!(delays, stats.delayed);
        assert!(drops > 0 && dups > 0 && delays > 0, "plan actually fired");
    }
}
