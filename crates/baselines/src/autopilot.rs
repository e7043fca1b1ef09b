//! A recreation of Google's Autopilot recommender (Rzadca et al.,
//! EuroSys 2020), as the paper builds one for its evaluation (§VI-A):
//!
//! > "The Autopilot ML recommender is inspired by a multi-armed bandit
//! > problem in which an agent tries to use the best set of arms to
//! > maximize the total reward gain over time."
//!
//! Per container and resource, Autopilot keeps exponentially decaying
//! histograms of usage; each **arm** is a (decay half-life, percentile,
//! safety margin) triple yielding a candidate limit; arms accrue an
//! exponentially smoothed cost of overruns (`w_o`), underruns/slack
//! (`w_u`) and limit churn (`w_Δ`); each update period the cheapest arm's
//! candidate becomes the limit. Like the original (and unlike VPA), the
//! limits apply without container restarts.

use crate::types::{
    validate_observation, validate_update_period, LimitUpdate, PeriodicScaler, UsageSample,
};
use escra_cluster::ContainerId;
use escra_simcore::time::SimDuration;
use serde::Serialize;
use std::collections::BTreeMap;

/// One bandit arm: a decayed-histogram percentile with a safety margin.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Arm {
    /// Histogram half-life in samples.
    pub half_life_samples: f64,
    /// Percentile of the decayed usage distribution, in `[0, 100]`.
    pub percentile: f64,
    /// Multiplicative safety margin on top of the percentile.
    pub margin: f64,
}

/// Autopilot configuration. The weight values (`w_o`, `w_u`, …) are the
/// parameters the paper notes Google tuned by hand; as in the paper we
/// tune them for best baseline performance.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AutopilotConfig {
    /// How often limits are recomputed. Autopilot defaults to 5 min; the
    /// paper shows 1 s is its best case and compares against that.
    pub update_period: SimDuration,
    /// The CPU arms of the bandit.
    pub arms: Vec<Arm>,
    /// Cost weight of an overrun (usage above the candidate limit).
    pub w_overrun: f64,
    /// Cost weight of slack (candidate limit above usage).
    pub w_underrun: f64,
    /// Cost weight of changing the applied limit (churn).
    pub w_delta: f64,
    /// Half-life, in samples, of the per-arm cost smoothing.
    pub cost_half_life_samples: f64,
    /// Memory limit = decayed peak × (1 + `mem_margin`).
    pub mem_margin: f64,
    /// Half-life, in samples, of the memory peak decay.
    pub mem_half_life_samples: f64,
    /// Minimum relative change before a new limit is actually emitted.
    pub min_change_fraction: f64,
    /// Floor for CPU limits, in cores.
    pub min_cpu_cores: f64,
    /// Floor for memory limits, in bytes.
    pub min_mem_bytes: u64,
}

impl Default for AutopilotConfig {
    fn default() -> Self {
        AutopilotConfig {
            update_period: SimDuration::from_secs(1),
            arms: vec![
                Arm {
                    half_life_samples: 30.0,
                    percentile: 95.0,
                    margin: 0.10,
                },
                Arm {
                    half_life_samples: 30.0,
                    percentile: 99.0,
                    margin: 0.15,
                },
                Arm {
                    half_life_samples: 120.0,
                    percentile: 90.0,
                    margin: 0.25,
                },
                Arm {
                    half_life_samples: 120.0,
                    percentile: 95.0,
                    margin: 0.15,
                },
                Arm {
                    half_life_samples: 600.0,
                    percentile: 99.0,
                    margin: 0.10,
                },
            ],
            w_overrun: 4.0,
            w_underrun: 1.0,
            w_delta: 0.1,
            cost_half_life_samples: 60.0,
            mem_margin: 0.25,
            mem_half_life_samples: 300.0,
            min_change_fraction: 0.02,
            min_cpu_cores: 0.05,
            min_mem_bytes: 32 * escra_cfs::MIB,
        }
    }
}

impl AutopilotConfig {
    /// Sets the update period (builder style) — used by the §VI-A
    /// update-period sensitivity experiment (1 s / 10 s / 30 s / 60 s).
    pub fn with_update_period(mut self, period: SimDuration) -> Self {
        assert!(!period.is_zero(), "update period must be non-zero");
        self.update_period = period;
        self
    }
}

/// An exponentially decaying histogram over non-negative values with
/// fixed-width buckets.
///
/// Every bucket outside `span` holds exactly zero weight, so decay and
/// scans touch the span only: a container whose usage stays within a
/// core touches ~20 of the 1 281 buckets. That is exact, not an
/// approximation — `0 × decay` is `0`, and a scan that adds zeros to a
/// zero running sum leaves it zero — so every weight, total and
/// percentile is the bit the whole-array walk gives.
#[derive(Debug, Clone)]
struct DecayedHistogram {
    weights: Vec<f64>,
    /// The buckets that ever received a sample (empty before the first).
    span: std::ops::Range<usize>,
    bucket_width: f64,
    decay: f64, // per-sample multiplicative decay
    total: f64,
}

impl DecayedHistogram {
    fn new(bucket_width: f64, max_value: f64, half_life_samples: f64) -> Self {
        let n = (max_value / bucket_width).ceil() as usize + 1;
        DecayedHistogram {
            weights: vec![0.0; n],
            span: 0..0,
            bucket_width,
            decay: 0.5f64.powf(1.0 / half_life_samples),
            total: 0.0,
        }
    }

    fn observe(&mut self, value: f64) {
        for w in &mut self.weights[self.span.clone()] {
            *w *= self.decay;
        }
        self.total *= self.decay;
        let idx = ((value / self.bucket_width) as usize).min(self.weights.len() - 1);
        self.weights[idx] += 1.0;
        self.total += 1.0;
        self.span = if self.span.is_empty() {
            idx..idx + 1
        } else {
            self.span.start.min(idx)..self.span.end.max(idx + 1)
        };
    }

    fn percentile(&self, p: f64) -> f64 {
        if self.total <= 0.0 {
            return 0.0;
        }
        let target = self.total * p / 100.0;
        // The whole-array walk reaches `target` in bucket 0 when a zero
        // sum already does (`p = 0`); below the span its sum stays zero,
        // and past the span it never grows.
        if 0.0 >= target {
            return self.bucket_width;
        }
        let mut cum = 0.0;
        for i in self.span.clone() {
            cum += self.weights[i];
            if cum >= target {
                return (i as f64 + 1.0) * self.bucket_width;
            }
        }
        self.weights.len() as f64 * self.bucket_width
    }
}

#[derive(Debug)]
struct ArmState {
    hist: DecayedHistogram,
    cost: f64,
}

#[derive(Debug)]
struct ContainerState {
    arms: Vec<ArmState>,
    mem_peak: f64,
    mem_decay: f64,
    applied_cpu: f64,
    applied_mem: u64,
}

impl ContainerState {
    fn new(cfg: &AutopilotConfig) -> Self {
        ContainerState {
            arms: cfg
                .arms
                .iter()
                .map(|a| ArmState {
                    // 0.05-core buckets up to 64 cores.
                    hist: DecayedHistogram::new(0.05, 64.0, a.half_life_samples),
                    cost: 0.0,
                })
                .collect(),
            mem_peak: 0.0,
            mem_decay: 0.5f64.powf(1.0 / cfg.mem_half_life_samples),
            applied_cpu: 0.0,
            applied_mem: 0,
        }
    }
}

/// The Autopilot-style periodic scaler.
///
/// ```
/// use escra_baselines::autopilot::{AutopilotConfig, AutopilotScaler};
/// use escra_baselines::types::{PeriodicScaler, UsageSample};
/// use escra_cluster::ContainerId;
///
/// let mut ap = AutopilotScaler::new(AutopilotConfig::default());
/// let c = ContainerId::new(0);
/// for _ in 0..60 {
///     ap.observe(c, UsageSample { cpu_cores: 1.0, mem_bytes: 100 << 20 });
/// }
/// let updates = ap.recommend();
/// assert_eq!(updates.len(), 1);
/// let cpu = updates[0].cpu_limit_cores.expect("cpu limit");
/// assert!(cpu > 1.0 && cpu < 1.5); // percentile + margin above usage
/// ```
#[derive(Debug)]
pub struct AutopilotScaler {
    cfg: AutopilotConfig,
    cost_decay: f64,
    containers: BTreeMap<ContainerId, ContainerState>,
}

impl AutopilotScaler {
    /// Creates a scaler.
    ///
    /// # Panics
    ///
    /// Panics if the config has no arms.
    pub fn new(cfg: AutopilotConfig) -> Self {
        assert!(!cfg.arms.is_empty(), "Autopilot needs at least one arm");
        validate_update_period(cfg.update_period);
        let cost_decay = 0.5f64.powf(1.0 / cfg.cost_half_life_samples);
        AutopilotScaler {
            cost_decay,
            cfg,
            containers: BTreeMap::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AutopilotConfig {
        &self.cfg
    }

    /// Warm-starts a container's recommender from profiled peaks, as a
    /// production Autopilot would from historical usage: the histograms
    /// are seeded with `samples` observations around the peak so the
    /// first recommendations start at the profiled level instead of the
    /// floor (avoiding a throttle-feedback cold start). The seed decays
    /// away at each arm's half-life as real usage arrives.
    pub fn seed_profile(
        &mut self,
        container: ContainerId,
        peak_cpu_cores: f64,
        peak_mem_bytes: u64,
        samples: usize,
    ) {
        for i in 0..samples {
            // Alternate the peak with a mid value so percentiles have a
            // distribution to work with, not a single spike.
            let cpu = if i % 2 == 0 {
                peak_cpu_cores
            } else {
                peak_cpu_cores * 0.6
            };
            self.observe(
                container,
                UsageSample {
                    cpu_cores: cpu,
                    mem_bytes: peak_mem_bytes,
                },
            );
        }
        // Neutralize the cost accumulated while seeding.
        if let Some(state) = self.containers.get_mut(&container) {
            for arm in &mut state.arms {
                arm.cost = 0.0;
            }
        }
    }

    fn state_for(&mut self, container: ContainerId) -> &mut ContainerState {
        let cfg = &self.cfg;
        self.containers
            .entry(container)
            .or_insert_with(|| ContainerState::new(cfg))
    }

    fn arm_candidate(arm: &Arm, state: &ArmState, floor: f64) -> f64 {
        (state.hist.percentile(arm.percentile) * (1.0 + arm.margin)).max(floor)
    }
}

impl PeriodicScaler for AutopilotScaler {
    fn observe(&mut self, container: ContainerId, sample: UsageSample) {
        validate_observation(&sample, f64::INFINITY);
        let cost_decay = self.cost_decay;
        let cfg = &self.cfg;
        let (w_o, w_u, w_d) = (cfg.w_overrun, cfg.w_underrun, cfg.w_delta);
        let floor = cfg.min_cpu_cores;
        let state = self
            .containers
            .entry(container)
            .or_insert_with(|| ContainerState::new(cfg));
        let applied = state.applied_cpu;
        for (arm, st) in cfg.arms.iter().zip(state.arms.iter_mut()) {
            st.hist.observe(sample.cpu_cores);
            let candidate = (st.hist.percentile(arm.percentile) * (1.0 + arm.margin)).max(floor);
            let over = (sample.cpu_cores - candidate).max(0.0) / candidate.max(1e-6);
            let under = (candidate - sample.cpu_cores).max(0.0) / candidate.max(1e-6);
            let churn = if applied > 0.0 {
                (candidate - applied).abs() / applied
            } else {
                0.0
            };
            st.cost = st.cost * cost_decay + w_o * over + w_u * under + w_d * churn;
        }
        state.mem_peak = (state.mem_peak * state.mem_decay).max(sample.mem_bytes as f64);
    }

    fn recommend(&mut self) -> Vec<LimitUpdate> {
        let cfg = self.cfg.clone();
        let mut out = Vec::new();
        for (id, state) in &mut self.containers {
            // Best arm by smoothed cost.
            let (best_idx, _) = state
                .arms
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.cost.partial_cmp(&b.cost).expect("NaN cost"))
                .expect("at least one arm");
            let cpu = Self::arm_candidate(
                &cfg.arms[best_idx],
                &state.arms[best_idx],
                cfg.min_cpu_cores,
            );
            let mem = ((state.mem_peak * (1.0 + cfg.mem_margin)) as u64).max(cfg.min_mem_bytes);

            let cpu_changed = state.applied_cpu <= 0.0
                || (cpu - state.applied_cpu).abs() / state.applied_cpu > cfg.min_change_fraction;
            let mem_changed = state.applied_mem == 0
                || (mem as f64 - state.applied_mem as f64).abs() / state.applied_mem as f64
                    > cfg.min_change_fraction;
            if cpu_changed || mem_changed {
                if cpu_changed {
                    state.applied_cpu = cpu;
                }
                if mem_changed {
                    state.applied_mem = mem;
                }
                out.push(LimitUpdate {
                    container: *id,
                    cpu_limit_cores: cpu_changed.then_some(cpu),
                    mem_limit_bytes: mem_changed.then_some(mem),
                    requires_restart: false,
                });
            }
        }
        out
    }

    fn update_period(&self) -> SimDuration {
        self.cfg.update_period
    }

    /// Warm-starts from the applied limits, exactly as the microsim
    /// seeds from profiled peaks (40 alternating samples).
    fn track(&mut self, container: ContainerId, cpu_limit_cores: f64, mem_limit_bytes: u64) {
        self.seed_profile(container, cpu_limit_cores, mem_limit_bytes, 40);
    }

    /// Removes a container's state (terminated pod).
    fn forget(&mut self, container: ContainerId) {
        self.containers.remove(&container);
    }

    fn on_oom(&mut self, container: ContainerId, limit_bytes: u64) {
        // Treat the OOM as evidence of demand ~25% above the limit —
        // the original Autopilot bumps limits on OOM events too.
        let state = self.state_for(container);
        state.mem_peak = state.mem_peak.max(limit_bytes as f64 * 1.25);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const C: ContainerId = ContainerId::new(0);

    /// [`DecayedHistogram`] as it was before it tracked its span: decay
    /// and percentile walk the whole array. The reference the span walk is
    /// held to.
    struct FullScan {
        weights: Vec<f64>,
        bucket_width: f64,
        decay: f64,
        total: f64,
    }

    impl FullScan {
        fn new(bucket_width: f64, max_value: f64, half_life_samples: f64) -> Self {
            let n = (max_value / bucket_width).ceil() as usize + 1;
            FullScan {
                weights: vec![0.0; n],
                bucket_width,
                decay: 0.5f64.powf(1.0 / half_life_samples),
                total: 0.0,
            }
        }

        fn observe(&mut self, value: f64) {
            for w in &mut self.weights {
                *w *= self.decay;
            }
            self.total *= self.decay;
            let idx = ((value / self.bucket_width) as usize).min(self.weights.len() - 1);
            self.weights[idx] += 1.0;
            self.total += 1.0;
        }

        fn percentile(&self, p: f64) -> f64 {
            if self.total <= 0.0 {
                return 0.0;
            }
            let target = self.total * p / 100.0;
            let mut cum = 0.0;
            for (i, w) in self.weights.iter().enumerate() {
                cum += w;
                if cum >= target {
                    return (i as f64 + 1.0) * self.bucket_width;
                }
            }
            self.weights.len() as f64 * self.bucket_width
        }
    }

    /// Feeds `values` to both histograms, comparing every percentile the
    /// default arms read (and `p` = 0 and 100) after each sample, and the
    /// weights at the end; returns how many weights ended subnormal.
    fn span_walk_matches_full_scan(
        bucket_width: f64,
        max_value: f64,
        half_life: f64,
        values: impl IntoIterator<Item = f64>,
    ) -> Result<usize, TestCaseError> {
        let mut span = DecayedHistogram::new(bucket_width, max_value, half_life);
        let mut full = FullScan::new(bucket_width, max_value, half_life);
        for (i, value) in values.into_iter().enumerate() {
            span.observe(value);
            full.observe(value);
            prop_assert_eq!(
                span.total.to_bits(),
                full.total.to_bits(),
                "total, sample {i}"
            );
            for p in [0.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
                let (got, want) = (span.percentile(p), full.percentile(p));
                prop_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "p{p}, sample {i}: {got} vs {want}"
                );
            }
        }
        for (b, (got, want)) in span.weights.iter().zip(&full.weights).enumerate() {
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "bucket {b}: {got:e} vs {want:e}"
            );
        }
        Ok(span.weights.iter().filter(|w| w.is_subnormal()).count())
    }

    proptest! {
        #[test]
        fn decayed_histogram_span_walk_is_the_full_scan_to_the_bit(
            // Runs of one value: zero, a usage, or one past the 64-core
            // range (clamped into the last bucket).
            runs in proptest::collection::vec((1usize..300, 0u8..4, 0.0f64..64.0), 1..6),
            half_life in 0usize..4,
            fine in any::<bool>(),
        ) {
            let half_life = [0.5, 2.0, 30.0, 600.0][half_life];
            let (bucket_width, max_value) = if fine { (0.05, 64.0) } else { (0.1, 10.0) };
            let values = runs.iter().flat_map(|&(len, kind, v)| {
                let value = match kind {
                    0 => 0.0,
                    1 => 64.0 + v,
                    _ => v,
                };
                std::iter::repeat_n(value, len)
            });
            span_walk_matches_full_scan(bucket_width, max_value, half_life, values)?;
        }
    }

    #[test]
    fn decayed_histogram_span_walk_matches_through_subnormal_weights() {
        // A quarter per sample: an old peak's weight passes through the
        // subnormals (after ~511 samples) on its way to zero (~537).
        for calm in [520, 530, 600] {
            let values = [5.0, 70.0]
                .into_iter()
                .chain(std::iter::repeat_n(1.0, calm));
            let subnormal = span_walk_matches_full_scan(0.05, 64.0, 0.5, values)
                .unwrap_or_else(|e| panic!("calm {calm}: {e}"));
            assert_eq!(subnormal > 0, calm < 537, "calm {calm}");
        }
    }

    fn sample(cpu: f64, mem_mib: u64) -> UsageSample {
        UsageSample {
            cpu_cores: cpu,
            mem_bytes: mem_mib * escra_cfs::MIB,
        }
    }

    #[test]
    fn decayed_histogram_percentiles() {
        let mut h = DecayedHistogram::new(0.1, 10.0, 1e9); // ~no decay
        for _ in 0..90 {
            h.observe(1.0);
        }
        for _ in 0..10 {
            h.observe(5.0);
        }
        assert!((h.percentile(50.0) - 1.1).abs() < 0.11);
        assert!(h.percentile(99.0) >= 5.0);
    }

    #[test]
    fn decay_forgets_old_peaks() {
        let mut h = DecayedHistogram::new(0.1, 10.0, 5.0); // fast decay
        for _ in 0..10 {
            h.observe(8.0);
        }
        for _ in 0..200 {
            h.observe(1.0);
        }
        assert!(h.percentile(99.0) < 2.0, "old peak should have decayed");
    }

    #[test]
    fn limit_sits_above_steady_usage() {
        let mut ap = AutopilotScaler::new(AutopilotConfig::default());
        for _ in 0..120 {
            ap.observe(C, sample(2.0, 256));
        }
        let up = ap.recommend();
        let cpu = up[0].cpu_limit_cores.unwrap();
        let mem = up[0].mem_limit_bytes.unwrap();
        assert!(cpu > 2.0 && cpu < 3.0, "cpu limit {cpu}");
        assert!(mem > 256 * escra_cfs::MIB && mem < 350 * escra_cfs::MIB);
    }

    #[test]
    fn slow_reaction_to_bursts() {
        // This is the Autopilot weakness Escra exploits: after a long calm
        // phase, a sudden burst exceeds the limit until enough samples
        // shift the percentile.
        let mut ap = AutopilotScaler::new(AutopilotConfig::default());
        for _ in 0..300 {
            ap.observe(C, sample(0.5, 128));
        }
        let calm_limit = ap.recommend()[0].cpu_limit_cores.unwrap();
        // During the calm phase the limit converges well below the coming
        // burst: when the burst arrives the container is throttled until
        // the *next* update period — the lag Escra's per-period telemetry
        // avoids.
        assert!(calm_limit < 1.0, "calm limit {calm_limit}");
        // After sustained burst samples, the recommender catches up.
        for _ in 0..600 {
            ap.observe(C, sample(4.0, 128));
        }
        let after = ap
            .recommend()
            .first()
            .and_then(|u| u.cpu_limit_cores)
            .unwrap_or(calm_limit);
        assert!(after > 4.0, "limit {after} should exceed usage eventually");
    }

    #[test]
    fn small_changes_are_suppressed() {
        let mut ap = AutopilotScaler::new(AutopilotConfig::default());
        for _ in 0..100 {
            ap.observe(C, sample(1.0, 100));
        }
        let first = ap.recommend();
        assert_eq!(first.len(), 1);
        // A couple more identical samples should not trigger churn.
        ap.observe(C, sample(1.0, 100));
        ap.observe(C, sample(1.0, 100));
        let second = ap.recommend();
        assert!(second.is_empty(), "identical usage must not churn limits");
    }

    #[test]
    fn forget_drops_state() {
        let mut ap = AutopilotScaler::new(AutopilotConfig::default());
        ap.observe(C, sample(1.0, 100));
        ap.forget(C);
        assert!(ap.recommend().is_empty());
    }

    #[test]
    fn update_period_configurable() {
        let ap = AutopilotScaler::new(
            AutopilotConfig::default().with_update_period(SimDuration::from_secs(30)),
        );
        assert_eq!(ap.update_period(), SimDuration::from_secs(30));
    }

    #[test]
    #[should_panic(expected = "at least one arm")]
    fn empty_arms_panics() {
        AutopilotScaler::new(AutopilotConfig {
            arms: vec![],
            ..AutopilotConfig::default()
        });
    }
}
