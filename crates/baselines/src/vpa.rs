//! A Kubernetes Vertical Pod Autoscaler (VPA) style scaler (§II).
//!
//! Threshold-based: a target utilization with lower/upper bounds; when
//! usage crosses a bound the limit is rescaled toward the target. The two
//! limitations the paper calls out are modelled faithfully:
//!
//! * applying a recommendation **restarts the container**;
//! * a container is rescaled **at most once per minute**.

use crate::types::{
    validate_observation, validate_update_period, LimitUpdate, PeriodicScaler, UsageSample,
};
use escra_cluster::ContainerId;
use escra_simcore::time::SimDuration;
use serde::Serialize;
use std::collections::BTreeMap;

/// VPA configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct VpaConfig {
    /// Desired usage/limit ratio after a rescale.
    pub target_utilization: f64,
    /// Rescale up when usage/limit exceeds this.
    pub upper_bound: f64,
    /// Rescale down when usage/limit falls below this.
    pub lower_bound: f64,
    /// Minimum time between rescales of one container (paper: 1 min).
    pub min_rescale_gap: SimDuration,
    /// How often recommendations are computed.
    pub update_period: SimDuration,
    /// Floor for CPU limits, in cores.
    pub min_cpu_cores: f64,
    /// Floor for memory limits, in bytes.
    pub min_mem_bytes: u64,
}

impl Default for VpaConfig {
    fn default() -> Self {
        VpaConfig {
            target_utilization: 0.7,
            upper_bound: 0.95,
            lower_bound: 0.35,
            min_rescale_gap: SimDuration::from_secs(60),
            update_period: SimDuration::from_secs(10),
            min_cpu_cores: 0.05,
            min_mem_bytes: 32 * escra_cfs::MIB,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct VpaState {
    cpu_limit: f64,
    mem_limit: u64,
    last_cpu_usage: f64,
    last_mem_usage: u64,
    /// Decaying peaks — VPA recommends from windowed usage history, not
    /// instantaneous samples (which would starve a restarting container).
    peak_cpu: f64,
    peak_mem: f64,
    /// Samples since the last rescale; gates the once-per-minute rule.
    samples_since_rescale: u64,
}

/// Per-sample decay of the tracked usage peaks (~1 min half-life at the
/// default 10 s update period).
const PEAK_DECAY: f64 = 0.9;

/// The VPA-style scaler.
///
/// The harness must seed current limits via [`PeriodicScaler::track`]
/// (VPA reads them from the pod spec) and honour
/// [`LimitUpdate::requires_restart`] when applying recommendations.
#[derive(Debug)]
pub struct VpaScaler {
    cfg: VpaConfig,
    samples_per_gap: u64,
    containers: BTreeMap<ContainerId, VpaState>,
}

impl VpaScaler {
    /// Creates a scaler.
    ///
    /// # Panics
    ///
    /// Panics unless `lower_bound < target_utilization < upper_bound`.
    pub fn new(cfg: VpaConfig) -> Self {
        assert!(
            cfg.lower_bound < cfg.target_utilization && cfg.target_utilization < cfg.upper_bound,
            "bounds must straddle the target utilization"
        );
        validate_update_period(cfg.update_period);
        let samples_per_gap =
            (cfg.min_rescale_gap.as_micros() / cfg.update_period.as_micros()).max(1);
        VpaScaler {
            cfg,
            samples_per_gap,
            containers: BTreeMap::new(),
        }
    }
}

impl PeriodicScaler for VpaScaler {
    fn observe(&mut self, container: ContainerId, sample: UsageSample) {
        validate_observation(&sample, f64::INFINITY);
        let st = self.containers.entry(container).or_default();
        st.last_cpu_usage = sample.cpu_cores;
        st.last_mem_usage = sample.mem_bytes;
        st.peak_cpu = (st.peak_cpu * PEAK_DECAY).max(sample.cpu_cores);
        st.peak_mem = (st.peak_mem * PEAK_DECAY).max(sample.mem_bytes as f64);
    }

    fn recommend(&mut self) -> Vec<LimitUpdate> {
        let cfg = self.cfg;
        let gap = self.samples_per_gap;
        let mut out = Vec::new();
        for (id, st) in &mut self.containers {
            st.samples_since_rescale = st.samples_since_rescale.saturating_add(1);
            if st.cpu_limit <= 0.0 || st.samples_since_rescale < gap {
                continue;
            }
            let cpu_util = st.last_cpu_usage / st.cpu_limit;
            let mem_util = if st.mem_limit > 0 {
                st.last_mem_usage as f64 / st.mem_limit as f64
            } else {
                0.0
            };
            let cpu_out = cpu_util > cfg.upper_bound || cpu_util < cfg.lower_bound;
            let mem_out = mem_util > cfg.upper_bound || mem_util < cfg.lower_bound;
            if !(cpu_out || mem_out) {
                continue;
            }
            let new_cpu = (st.peak_cpu / cfg.target_utilization).max(cfg.min_cpu_cores);
            let new_mem = ((st.peak_mem / cfg.target_utilization) as u64).max(cfg.min_mem_bytes);
            st.cpu_limit = new_cpu;
            st.mem_limit = new_mem;
            st.samples_since_rescale = 0;
            out.push(LimitUpdate {
                container: *id,
                cpu_limit_cores: Some(new_cpu),
                mem_limit_bytes: Some(new_mem),
                requires_restart: true, // the VPA limitation
            });
        }
        out
    }

    fn track(&mut self, container: ContainerId, cpu_limit_cores: f64, mem_limit_bytes: u64) {
        let st = self.containers.entry(container).or_default();
        st.cpu_limit = cpu_limit_cores;
        st.mem_limit = mem_limit_bytes;
        st.samples_since_rescale = u64::MAX / 2; // eligible immediately
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

    fn scaler() -> VpaScaler {
        let mut v = VpaScaler::new(VpaConfig::default());
        v.track(C, 1.0, 256 * escra_cfs::MIB);
        v
    }

    #[test]
    fn rescales_up_when_above_upper_bound() {
        let mut v = scaler();
        v.observe(
            C,
            UsageSample {
                cpu_cores: 0.98,
                mem_bytes: 100 * escra_cfs::MIB,
            },
        );
        let up = v.recommend();
        assert_eq!(up.len(), 1);
        assert!(up[0].requires_restart);
        let cpu = up[0].cpu_limit_cores.unwrap();
        assert!((cpu - 0.98 / 0.7).abs() < 1e-9);
    }

    #[test]
    fn within_bounds_is_quiet() {
        let mut v = scaler();
        v.observe(
            C,
            UsageSample {
                cpu_cores: 0.7,
                mem_bytes: 180 * escra_cfs::MIB,
            },
        );
        assert!(v.recommend().is_empty());
    }

    #[test]
    fn respects_min_rescale_gap() {
        let mut v = scaler();
        v.observe(
            C,
            UsageSample {
                cpu_cores: 0.98,
                mem_bytes: 250 * escra_cfs::MIB,
            },
        );
        assert_eq!(v.recommend().len(), 1);
        // Still over the bound, but inside the 60 s gap (6 update periods).
        for _ in 0..5 {
            v.observe(
                C,
                UsageSample {
                    cpu_cores: 2.0,
                    mem_bytes: 250 * escra_cfs::MIB,
                },
            );
            assert!(v.recommend().is_empty(), "rescale inside the gap");
        }
        v.observe(
            C,
            UsageSample {
                cpu_cores: 2.0,
                mem_bytes: 250 * escra_cfs::MIB,
            },
        );
        assert_eq!(v.recommend().len(), 1, "gap elapsed");
    }

    #[test]
    fn scales_down_when_idle() {
        let mut v = scaler();
        v.observe(
            C,
            UsageSample {
                cpu_cores: 0.1,
                mem_bytes: 200 * escra_cfs::MIB,
            },
        );
        let up = v.recommend();
        assert_eq!(up.len(), 1);
        assert!(up[0].cpu_limit_cores.unwrap() < 0.2);
    }

    #[test]
    #[should_panic(expected = "bounds must straddle")]
    fn invalid_bounds_panic() {
        VpaScaler::new(VpaConfig {
            lower_bound: 0.8,
            ..VpaConfig::default()
        });
    }
}
