//! ARC-V-style phase-aware vertical scaling (after "ARC-V: Vertical
//! Resource Adaptivity for HPC Workloads in Containerized Environments",
//! arXiv 2505.02964): limits are raised and shrunk **in place** (no
//! restart), gated by the observed utilization *slope* — the phase
//! detector — and a per-container cooldown.
//!
//! The intuition: HPC-style phases alternate compute-heavy and
//! I/O-heavy stretches. A high utilization with a non-falling slope
//! means the container is entering (or holding) a hot phase — raise the
//! limit multiplicatively before throttling bites. A sustained low
//! utilization with a non-rising slope means the phase ended — shrink,
//! but never below what the recent window actually used. The cooldown
//! keeps the controller from chattering at phase boundaries; an OOM
//! event bypasses it (memory pressure cannot wait).

use crate::types::{
    validate_observation, validate_update_period, LimitUpdate, PeriodicScaler, UsageSample,
};
use escra_cluster::ContainerId;
use escra_simcore::time::SimDuration;
use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};

/// ARC-V configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ArcVConfig {
    /// Utilization (usage/limit) above which a non-falling phase grows
    /// the limit.
    pub high_utilization: f64,
    /// Utilization below which samples count toward the shrink streak.
    pub low_utilization: f64,
    /// Samples in the slope window (one sample per second).
    pub slope_window: usize,
    /// Least-squares slope magnitude (cores per sample) below which the
    /// phase counts as flat.
    pub slope_epsilon: f64,
    /// Multiplicative in-place raise.
    pub grow_factor: f64,
    /// Multiplicative in-place shrink.
    pub shrink_factor: f64,
    /// Samples between scaling actions on one container (the cooldown).
    pub cooldown_samples: u64,
    /// Consecutive low-utilization samples required before a shrink.
    pub shrink_patience: u64,
    /// How often recommendations are computed.
    pub update_period: SimDuration,
    /// Floor for CPU limits, in cores.
    pub min_cpu_cores: f64,
    /// Floor for memory limits, in bytes.
    pub min_mem_bytes: u64,
    /// Ceiling for CPU limits, in cores (node capacity).
    pub max_cpu_cores: f64,
    /// Ceiling for memory limits, in bytes (node capacity).
    pub max_mem_bytes: u64,
}

impl Default for ArcVConfig {
    fn default() -> Self {
        ArcVConfig {
            high_utilization: 0.85,
            low_utilization: 0.40,
            slope_window: 8,
            slope_epsilon: 0.01,
            grow_factor: 1.25,
            shrink_factor: 0.85,
            cooldown_samples: 10,
            shrink_patience: 8,
            update_period: SimDuration::from_secs(2),
            min_cpu_cores: 0.05,
            min_mem_bytes: 32 * escra_cfs::MIB,
            max_cpu_cores: 64.0,
            max_mem_bytes: 64 * 1024 * escra_cfs::MIB,
        }
    }
}

/// Half-life, in samples, of the tracked memory peak (ARC-V shrinks
/// memory toward recent peaks, not the all-time one).
const MEM_PEAK_DECAY: f64 = 0.95;

#[derive(Debug, Default)]
struct ArcVState {
    cpu_limit: f64,
    mem_limit: u64,
    window: VecDeque<f64>,
    mem_peak: f64,
    last_mem_usage: u64,
    samples_since_action: u64,
    low_streak: u64,
    /// Emergency memory raise queued by an OOM event; bypasses the
    /// cooldown at the next recommendation.
    oom_raise_bytes: Option<u64>,
}

/// Least-squares slope of the window, in cores per sample; 0 for fewer
/// than two samples.
fn window_slope(window: &VecDeque<f64>) -> f64 {
    let n = window.len();
    if n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    let mean_x = (nf - 1.0) / 2.0;
    let mean_y = window.iter().sum::<f64>() / nf;
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, &y) in window.iter().enumerate() {
        let dx = i as f64 - mean_x;
        num += dx * (y - mean_y);
        den += dx * dx;
    }
    if den <= 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The ARC-V-style scaler.
///
/// The harness must seed current limits via
/// [`PeriodicScaler::track`] (utilization is usage **relative to the
/// applied limit**) and applies recommendations in place.
#[derive(Debug)]
pub struct ArcVScaler {
    cfg: ArcVConfig,
    containers: BTreeMap<ContainerId, ArcVState>,
}

impl ArcVScaler {
    /// Creates a scaler.
    ///
    /// # Panics
    ///
    /// Panics unless `low_utilization < high_utilization`,
    /// `shrink_factor < 1 < grow_factor`, the floor/ceiling pairs are
    /// ordered, and the update period is non-zero.
    pub fn new(cfg: ArcVConfig) -> Self {
        assert!(
            cfg.low_utilization < cfg.high_utilization,
            "low utilization must be below high utilization"
        );
        assert!(
            cfg.shrink_factor < 1.0 && cfg.grow_factor > 1.0,
            "shrink factor must be < 1 < grow factor"
        );
        assert!(
            cfg.min_cpu_cores <= cfg.max_cpu_cores && cfg.min_mem_bytes <= cfg.max_mem_bytes,
            "floors must not exceed ceilings"
        );
        assert!(cfg.slope_window >= 2, "slope needs at least 2 samples");
        validate_update_period(cfg.update_period);
        ArcVScaler {
            cfg,
            containers: BTreeMap::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ArcVConfig {
        &self.cfg
    }
}

impl PeriodicScaler for ArcVScaler {
    fn observe(&mut self, container: ContainerId, sample: UsageSample) {
        validate_observation(&sample, self.cfg.max_cpu_cores);
        let cfg = self.cfg;
        let st = self.containers.entry(container).or_default();
        st.window.push_back(sample.cpu_cores);
        while st.window.len() > cfg.slope_window {
            st.window.pop_front();
        }
        st.mem_peak = (st.mem_peak * MEM_PEAK_DECAY).max(sample.mem_bytes as f64);
        st.last_mem_usage = sample.mem_bytes;
        st.samples_since_action = st.samples_since_action.saturating_add(1);
        if st.cpu_limit > 0.0 && sample.cpu_cores / st.cpu_limit <= cfg.low_utilization {
            st.low_streak = st.low_streak.saturating_add(1);
        } else {
            st.low_streak = 0;
        }
    }

    fn recommend(&mut self) -> Vec<LimitUpdate> {
        let cfg = self.cfg;
        let mut out = Vec::new();
        for (id, st) in &mut self.containers {
            // An OOM-queued memory raise fires regardless of phase or
            // cooldown.
            if let Some(target) = st.oom_raise_bytes.take() {
                let mem = target.clamp(cfg.min_mem_bytes, cfg.max_mem_bytes);
                st.mem_limit = mem;
                st.samples_since_action = 0;
                out.push(LimitUpdate {
                    container: *id,
                    cpu_limit_cores: None,
                    mem_limit_bytes: Some(mem),
                    requires_restart: false,
                });
                continue;
            }
            if st.cpu_limit <= 0.0
                || st.window.is_empty()
                || st.samples_since_action < cfg.cooldown_samples
            {
                continue;
            }
            let usage = *st.window.back().expect("non-empty window");
            let util = usage / st.cpu_limit;
            let mem_util = if st.mem_limit > 0 {
                st.last_mem_usage as f64 / st.mem_limit as f64
            } else {
                0.0
            };
            let slope = window_slope(&st.window);
            let rising = slope >= cfg.slope_epsilon;
            let falling = slope <= -cfg.slope_epsilon;

            let mut new_cpu = None;
            let mut new_mem = None;
            if (util >= cfg.high_utilization && !falling) || mem_util >= cfg.high_utilization {
                // Hot phase: grow whichever resource is saturated.
                if util >= cfg.high_utilization {
                    new_cpu = Some(
                        (st.cpu_limit * cfg.grow_factor)
                            .clamp(cfg.min_cpu_cores, cfg.max_cpu_cores),
                    );
                }
                if mem_util >= cfg.high_utilization {
                    new_mem = Some(
                        ((st.mem_limit as f64 * cfg.grow_factor) as u64)
                            .clamp(cfg.min_mem_bytes, cfg.max_mem_bytes),
                    );
                }
            } else if st.low_streak >= cfg.shrink_patience && !rising {
                // Phase ended: shrink, but never below what the window
                // actually used (plus the high-utilization margin).
                let window_max = st.window.iter().copied().fold(0.0, f64::max);
                let cpu = (st.cpu_limit * cfg.shrink_factor)
                    .max(window_max / cfg.high_utilization)
                    .clamp(cfg.min_cpu_cores, cfg.max_cpu_cores);
                if cpu < st.cpu_limit * 0.999 {
                    new_cpu = Some(cpu);
                }
                let mem = ((st.mem_limit as f64 * cfg.shrink_factor)
                    .max(st.mem_peak / cfg.high_utilization) as u64)
                    .clamp(cfg.min_mem_bytes, cfg.max_mem_bytes);
                if mem < st.mem_limit {
                    new_mem = Some(mem);
                }
            }
            if new_cpu.is_none() && new_mem.is_none() {
                continue;
            }
            if let Some(cpu) = new_cpu {
                st.cpu_limit = cpu;
            }
            if let Some(mem) = new_mem {
                st.mem_limit = mem;
            }
            st.samples_since_action = 0;
            st.low_streak = 0;
            out.push(LimitUpdate {
                container: *id,
                cpu_limit_cores: new_cpu,
                mem_limit_bytes: new_mem,
                requires_restart: false,
            });
        }
        out
    }

    fn on_oom(&mut self, container: ContainerId, limit_bytes: u64) {
        let st = self.containers.entry(container).or_default();
        let target = limit_bytes.saturating_add(limit_bytes / 2);
        st.oom_raise_bytes = Some(st.oom_raise_bytes.map_or(target, |t| t.max(target)));
        st.mem_peak = st.mem_peak.max(limit_bytes as f64);
    }

    fn track(&mut self, container: ContainerId, cpu_limit_cores: f64, mem_limit_bytes: u64) {
        let st = self.containers.entry(container).or_default();
        st.cpu_limit = cpu_limit_cores;
        st.mem_limit = mem_limit_bytes;
        // Eligible for a first action as soon as a slope exists.
        st.samples_since_action = self.cfg.cooldown_samples;
    }

    fn forget(&mut self, container: ContainerId) {
        self.containers.remove(&container);
    }

    fn update_period(&self) -> SimDuration {
        self.cfg.update_period
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: ContainerId = ContainerId::new(0);

    fn sample(cpu: f64, mem_mib: u64) -> UsageSample {
        UsageSample {
            cpu_cores: cpu,
            mem_bytes: mem_mib * escra_cfs::MIB,
        }
    }

    fn scaler() -> ArcVScaler {
        let mut a = ArcVScaler::new(ArcVConfig::default());
        a.track(C, 1.0, 256 * escra_cfs::MIB);
        a
    }

    #[test]
    fn slope_of_a_ramp_is_positive() {
        let mut w = VecDeque::new();
        for i in 0..8 {
            w.push_back(i as f64 * 0.1);
        }
        assert!((window_slope(&w) - 0.1).abs() < 1e-9);
        w.clear();
        w.push_back(1.0);
        assert_eq!(window_slope(&w), 0.0);
    }

    #[test]
    fn hot_rising_phase_grows_in_place() {
        let mut a = scaler();
        // Utilization ramps toward saturation: high util + rising slope.
        for i in 0..10 {
            a.observe(C, sample(0.5 + 0.05 * i as f64, 64));
        }
        let up = a.recommend();
        assert_eq!(up.len(), 1);
        assert!(!up[0].requires_restart, "ARC-V scales in place");
        assert_eq!(up[0].cpu_limit_cores, Some(1.25));
    }

    #[test]
    fn falling_phase_does_not_grow() {
        let mut a = scaler();
        // High utilization but clearly decaying — the phase detector
        // must hold fire.
        for i in 0..8 {
            a.observe(C, sample(0.99 - 0.03 * i as f64, 64));
        }
        assert!(a.recommend().is_empty());
    }

    #[test]
    fn sustained_low_phase_shrinks_after_patience() {
        let mut a = scaler();
        for _ in 0..7 {
            a.observe(C, sample(0.2, 64));
            assert!(a.recommend().is_empty(), "inside the patience window");
        }
        a.observe(C, sample(0.2, 64));
        let up = a.recommend();
        assert_eq!(up.len(), 1);
        let cpu = up[0].cpu_limit_cores.unwrap();
        assert!((0.2..1.0).contains(&cpu), "cpu {cpu}");
    }

    #[test]
    fn cooldown_spaces_out_actions() {
        let mut a = scaler();
        for _ in 0..8 {
            a.observe(C, sample(0.95, 64));
        }
        assert_eq!(a.recommend().len(), 1);
        // Still saturated, but inside the cooldown.
        for _ in 0..9 {
            a.observe(C, sample(1.2, 64));
            assert!(a.recommend().is_empty(), "inside the cooldown");
        }
        a.observe(C, sample(1.2, 64));
        assert_eq!(a.recommend().len(), 1, "cooldown elapsed");
    }

    #[test]
    fn oom_bypasses_the_cooldown() {
        let mut a = scaler();
        for _ in 0..8 {
            a.observe(C, sample(0.95, 64));
        }
        assert_eq!(a.recommend().len(), 1); // action resets the cooldown
        a.on_oom(C, 256 * escra_cfs::MIB);
        let up = a.recommend();
        assert_eq!(up.len(), 1, "OOM raise must not wait for the cooldown");
        assert_eq!(up[0].cpu_limit_cores, None);
        assert_eq!(up[0].mem_limit_bytes, Some(384 * escra_cfs::MIB));
    }

    #[test]
    fn quiescence_is_silent() {
        let mut a = scaler();
        // Mid-range utilization, flat slope: no action, ever.
        for _ in 0..50 {
            a.observe(C, sample(0.6, 64));
            assert!(a.recommend().is_empty());
        }
    }

    #[test]
    fn shrink_converges_to_a_fixed_point() {
        let mut a = scaler();
        let mut emitted = 0;
        for _ in 0..200 {
            a.observe(C, sample(0.2, 64));
            emitted += a.recommend().len();
        }
        // The limit walks down to window_max / high_utilization and then
        // goes quiet instead of re-emitting the same value forever.
        let final_updates: usize = (0..20)
            .map(|_| {
                a.observe(C, sample(0.2, 64));
                a.recommend().len()
            })
            .sum();
        assert!(emitted >= 2, "shrink steps {emitted}");
        assert_eq!(final_updates, 0, "must converge to silence");
    }

    #[test]
    fn limits_respect_the_ceiling() {
        let mut a = ArcVScaler::new(ArcVConfig {
            max_cpu_cores: 1.1,
            ..ArcVConfig::default()
        });
        a.track(C, 1.0, 256 * escra_cfs::MIB);
        for _ in 0..10 {
            a.observe(C, sample(1.0, 64));
        }
        let up = a.recommend();
        assert_eq!(up[0].cpu_limit_cores, Some(1.1), "clamped at node capacity");
    }

    #[test]
    #[should_panic(expected = "low utilization must be below")]
    fn inverted_thresholds_panic() {
        ArcVScaler::new(ArcVConfig {
            low_utilization: 0.9,
            ..ArcVConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "update period must be non-zero")]
    fn zero_period_panics() {
        ArcVScaler::new(ArcVConfig {
            update_period: SimDuration::ZERO,
            ..ArcVConfig::default()
        });
    }
}
