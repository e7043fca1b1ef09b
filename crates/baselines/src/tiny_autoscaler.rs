//! A per-function window-percentile CPU autoscaler, after Zhao & Uta's
//! "Tiny Autoscalers for Tiny Workloads" (CCGrid 2022): imitate what
//! Kubernetes VPA computes, but at function granularity and on a short
//! sliding window, so tiny serverless workloads get resource predictions
//! within seconds instead of minutes.
//!
//! The recipe: keep the last `history_samples` usage observations per
//! container, predict the next interval's demand as a configurable
//! percentile of that window, and provision `headroom ×` the prediction.
//! Unlike VPA the limits apply **in place** (no restart) and there is no
//! once-per-minute rate limit — the paper's point is that the simple
//! window statistic is competitive with heavyweight forecasters at a
//! fraction of the cost.

use crate::types::{
    validate_observation, validate_update_period, LimitUpdate, PeriodicScaler, UsageSample,
};
use escra_cluster::ContainerId;
use escra_simcore::time::SimDuration;
use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};

/// Tiny-Autoscaler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TinyAutoscalerConfig {
    /// Sliding-window length, in samples (one sample per second in the
    /// harness; the paper's windows are 10–60 s).
    pub history_samples: usize,
    /// Percentile of the window used as the demand prediction.
    pub percentile: f64,
    /// Multiplicative headroom on top of the prediction.
    pub headroom: f64,
    /// How often recommendations are computed.
    pub update_period: SimDuration,
    /// Minimum relative change before a new limit is emitted (suppresses
    /// churn; makes decisions converge under flat usage).
    pub min_change_fraction: f64,
    /// Floor for CPU limits, in cores.
    pub min_cpu_cores: f64,
    /// Floor for memory limits, in bytes.
    pub min_mem_bytes: u64,
    /// Ceiling for CPU limits, in cores (node capacity).
    pub max_cpu_cores: f64,
    /// Ceiling for memory limits, in bytes (node capacity).
    pub max_mem_bytes: u64,
}

impl Default for TinyAutoscalerConfig {
    fn default() -> Self {
        TinyAutoscalerConfig {
            history_samples: 30,
            percentile: 95.0,
            headroom: 1.15,
            update_period: SimDuration::from_secs(5),
            min_change_fraction: 0.05,
            min_cpu_cores: 0.05,
            min_mem_bytes: 32 * escra_cfs::MIB,
            max_cpu_cores: 64.0,
            max_mem_bytes: 64 * 1024 * escra_cfs::MIB,
        }
    }
}

#[derive(Debug, Default)]
struct TinyState {
    cpu_window: VecDeque<f64>,
    mem_window: VecDeque<u64>,
    /// Last emitted (or seeded) limits; 0 = none yet.
    cpu_limit: f64,
    mem_limit: u64,
    /// Raised on OOM: the window can never observe usage above the
    /// limit, so without this an undersized memory limit is a fixed
    /// point and the container crash-loops.
    mem_oom_floor: u64,
}

/// Nearest-rank percentile of a window (deterministic total order).
fn window_percentile(window: &VecDeque<f64>, p: f64) -> f64 {
    let mut sorted: Vec<f64> = window.iter().copied().collect();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The Tiny-Autoscaler.
///
/// ```
/// use escra_baselines::tiny_autoscaler::{TinyAutoscaler, TinyAutoscalerConfig};
/// use escra_baselines::types::{PeriodicScaler, UsageSample};
/// use escra_cluster::ContainerId;
///
/// let mut tiny = TinyAutoscaler::new(TinyAutoscalerConfig::default());
/// let c = ContainerId::new(0);
/// for _ in 0..30 {
///     tiny.observe(c, UsageSample { cpu_cores: 0.8, mem_bytes: 100 << 20 });
/// }
/// let updates = tiny.recommend();
/// let cpu = updates[0].cpu_limit_cores.expect("cpu limit");
/// assert!((cpu - 0.8 * 1.15).abs() < 1e-9); // p95 of flat window × headroom
/// assert!(!updates[0].requires_restart);     // in-place, unlike VPA
/// ```
#[derive(Debug)]
pub struct TinyAutoscaler {
    cfg: TinyAutoscalerConfig,
    containers: BTreeMap<ContainerId, TinyState>,
}

impl TinyAutoscaler {
    /// Creates a scaler.
    ///
    /// # Panics
    ///
    /// Panics on an empty window, a percentile outside `(0, 100]`,
    /// non-positive headroom, inverted floor/ceiling pairs, or a zero
    /// update period.
    pub fn new(cfg: TinyAutoscalerConfig) -> Self {
        assert!(cfg.history_samples >= 1, "window needs at least 1 sample");
        assert!(
            cfg.percentile > 0.0 && cfg.percentile <= 100.0,
            "percentile must be in (0, 100]"
        );
        assert!(cfg.headroom > 0.0, "headroom must be positive");
        assert!(
            cfg.min_cpu_cores <= cfg.max_cpu_cores && cfg.min_mem_bytes <= cfg.max_mem_bytes,
            "floors must not exceed ceilings"
        );
        assert!(
            cfg.min_change_fraction >= 0.0,
            "min change fraction must be non-negative"
        );
        validate_update_period(cfg.update_period);
        TinyAutoscaler {
            cfg,
            containers: BTreeMap::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TinyAutoscalerConfig {
        &self.cfg
    }
}

fn rel_change(old: f64, new: f64) -> f64 {
    if old <= 0.0 {
        f64::INFINITY
    } else {
        (new - old).abs() / old
    }
}

impl PeriodicScaler for TinyAutoscaler {
    fn observe(&mut self, container: ContainerId, sample: UsageSample) {
        validate_observation(&sample, self.cfg.max_cpu_cores);
        let window = self.cfg.history_samples;
        let st = self.containers.entry(container).or_default();
        st.cpu_window.push_back(sample.cpu_cores);
        st.mem_window.push_back(sample.mem_bytes);
        while st.cpu_window.len() > window {
            st.cpu_window.pop_front();
        }
        while st.mem_window.len() > window {
            st.mem_window.pop_front();
        }
    }

    fn recommend(&mut self) -> Vec<LimitUpdate> {
        let cfg = self.cfg;
        let mut out = Vec::new();
        for (id, st) in &mut self.containers {
            if st.cpu_window.is_empty() {
                continue;
            }
            let cpu = (window_percentile(&st.cpu_window, cfg.percentile) * cfg.headroom)
                .clamp(cfg.min_cpu_cores, cfg.max_cpu_cores);
            let mem_peak = st.mem_window.iter().copied().max().unwrap_or(0);
            let mem = ((mem_peak as f64 * cfg.headroom) as u64)
                .max(st.mem_oom_floor)
                .clamp(cfg.min_mem_bytes, cfg.max_mem_bytes);
            let cpu_changed = rel_change(st.cpu_limit, cpu) > cfg.min_change_fraction;
            let mem_changed = rel_change(st.mem_limit as f64, mem as f64) > cfg.min_change_fraction;
            if !(cpu_changed || mem_changed) {
                continue;
            }
            if cpu_changed {
                st.cpu_limit = cpu;
            }
            if mem_changed {
                st.mem_limit = mem;
            }
            out.push(LimitUpdate {
                container: *id,
                cpu_limit_cores: cpu_changed.then_some(cpu),
                mem_limit_bytes: mem_changed.then_some(mem),
                requires_restart: false,
            });
        }
        out
    }

    fn on_oom(&mut self, container: ContainerId, limit_bytes: u64) {
        let st = self.containers.entry(container).or_default();
        st.mem_oom_floor = st
            .mem_oom_floor
            .max(limit_bytes.saturating_add(limit_bytes / 4));
    }

    fn track(&mut self, container: ContainerId, cpu_limit_cores: f64, mem_limit_bytes: u64) {
        let st = self.containers.entry(container).or_default();
        st.cpu_limit = cpu_limit_cores;
        st.mem_limit = mem_limit_bytes;
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

    #[test]
    fn percentile_of_window_drives_the_limit() {
        let mut t = TinyAutoscaler::new(TinyAutoscalerConfig::default());
        // 29 samples at 0.5 cores, one spike at 2.0: p95 over 30 samples
        // is the 29th-ranked value = 0.5.
        for _ in 0..29 {
            t.observe(C, sample(0.5, 64));
        }
        t.observe(C, sample(2.0, 64));
        let up = t.recommend();
        assert_eq!(up.len(), 1);
        let cpu = up[0].cpu_limit_cores.unwrap();
        assert!((cpu - 0.5 * 1.15).abs() < 1e-9, "cpu {cpu}");
    }

    #[test]
    fn window_slides_past_old_peaks() {
        let mut t = TinyAutoscaler::new(TinyAutoscalerConfig::default());
        for _ in 0..30 {
            t.observe(C, sample(4.0, 64));
        }
        let high = t.recommend()[0].cpu_limit_cores.unwrap();
        // 30 fresh low samples fully evict the old phase.
        for _ in 0..30 {
            t.observe(C, sample(0.2, 64));
        }
        let low = t.recommend()[0].cpu_limit_cores.unwrap();
        assert!(high > 4.0 && low < 0.3, "high {high} low {low}");
    }

    #[test]
    fn flat_usage_converges_to_silence() {
        let mut t = TinyAutoscaler::new(TinyAutoscalerConfig::default());
        for _ in 0..30 {
            t.observe(C, sample(1.0, 128));
        }
        assert_eq!(t.recommend().len(), 1);
        for _ in 0..10 {
            t.observe(C, sample(1.0, 128));
            assert!(t.recommend().is_empty(), "flat usage must not churn");
        }
    }

    #[test]
    fn oom_raises_the_memory_floor() {
        let mut t = TinyAutoscaler::new(TinyAutoscalerConfig::default());
        t.observe(C, sample(0.5, 100));
        let before = t.recommend()[0].mem_limit_bytes.unwrap();
        t.on_oom(C, 200 * escra_cfs::MIB);
        t.observe(C, sample(0.5, 100));
        let after = t.recommend()[0].mem_limit_bytes.unwrap();
        assert!(after >= 250 * escra_cfs::MIB, "after {after}");
        assert!(after > before);
    }

    #[test]
    fn limits_respect_floor_and_ceiling() {
        let cfg = TinyAutoscalerConfig {
            max_cpu_cores: 2.0,
            ..TinyAutoscalerConfig::default()
        };
        let mut t = TinyAutoscaler::new(cfg);
        t.observe(C, sample(0.0, 0));
        let up = t.recommend();
        assert_eq!(up[0].cpu_limit_cores, Some(cfg.min_cpu_cores));
        assert_eq!(up[0].mem_limit_bytes, Some(cfg.min_mem_bytes));
        let d = ContainerId::new(1);
        t.observe(d, sample(2.0, 64));
        let up = t.recommend();
        assert_eq!(up[0].cpu_limit_cores, Some(2.0), "clamped at the ceiling");
    }

    #[test]
    fn forget_drops_state_and_track_seeds_limits() {
        let mut t = TinyAutoscaler::new(TinyAutoscalerConfig::default());
        let seeded_mem = ((64 * escra_cfs::MIB) as f64 * 1.15) as u64;
        t.track(C, 1.15, seeded_mem);
        t.observe(C, sample(1.0, 64));
        // Seeded limits equal the prediction → suppressed.
        assert!(t.recommend().is_empty());
        t.forget(C);
        assert!(t.recommend().is_empty());
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn invalid_percentile_panics() {
        TinyAutoscaler::new(TinyAutoscalerConfig {
            percentile: 0.0,
            ..TinyAutoscalerConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "update period must be non-zero")]
    fn zero_period_panics() {
        TinyAutoscaler::new(TinyAutoscalerConfig {
            update_period: SimDuration::ZERO,
            ..TinyAutoscalerConfig::default()
        });
    }
}
