//! Shared types for baseline autoscaling policies.

use escra_cluster::ContainerId;
use escra_simcore::time::SimDuration;
use serde::Serialize;

/// A limit recommendation emitted by a periodic autoscaler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LimitUpdate {
    /// Target container.
    pub container: ContainerId,
    /// New CPU limit in cores, if changed.
    pub cpu_limit_cores: Option<f64>,
    /// New memory limit in bytes, if changed.
    pub mem_limit_bytes: Option<u64>,
    /// Whether applying this update restarts the container (VPA does;
    /// Autopilot and Escra do not).
    pub requires_restart: bool,
}

/// One usage observation for a container over a sample interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct UsageSample {
    /// Mean CPU usage over the interval, in cores.
    pub cpu_cores: f64,
    /// Memory usage at the end of the interval, in bytes.
    pub mem_bytes: u64,
}

/// Debug-asserted sanity checks on one telemetry observation, shared by
/// every [`PeriodicScaler`] impl: malformed telemetry (NaN/negative
/// usage, usage above the physical capacity) fails loudly in tests
/// instead of silently propagating into limit recommendations. Callers
/// that do not know the node capacity pass [`f64::INFINITY`]; the
/// harness validates against the real node core count before feeding
/// scalers.
pub fn validate_observation(sample: &UsageSample, capacity_cores: f64) {
    debug_assert!(
        sample.cpu_cores.is_finite(),
        "malformed telemetry: CPU usage must be finite, got {}",
        sample.cpu_cores
    );
    debug_assert!(
        sample.cpu_cores >= 0.0,
        "malformed telemetry: CPU usage must be non-negative, got {}",
        sample.cpu_cores
    );
    debug_assert!(
        sample.cpu_cores <= capacity_cores,
        "malformed telemetry: CPU usage {} cores exceeds capacity {} cores",
        sample.cpu_cores,
        capacity_cores
    );
}

/// Rejects a zero update period — a zero-period scaler would divide the
/// sample-per-gap bookkeeping by zero and can never be scheduled. Every
/// scaler constructor calls this.
///
/// # Panics
///
/// Panics if `period` is zero.
pub fn validate_update_period(period: SimDuration) {
    assert!(!period.is_zero(), "update period must be non-zero");
}

/// A periodic (sampling) autoscaler: the interface shared by the
/// baseline policies (Static, Autopilot recreation, VPA style,
/// Tiny-Autoscaler, ARC-V). The harness feeds one [`UsageSample`] per
/// container per sample period and asks for recommendations every
/// update period.
pub trait PeriodicScaler {
    /// Ingests one usage sample for `container`.
    fn observe(&mut self, container: ContainerId, sample: UsageSample);

    /// Produces limit updates; called once per update period.
    fn recommend(&mut self) -> Vec<LimitUpdate>;

    /// Notifies the scaler that `container` was OOM-killed at its
    /// current memory limit. Default: no reaction. Autopilot reacts by
    /// raising its memory estimate (usage can never be observed above
    /// the limit, so without this signal an undersized limit is a fixed
    /// point and the container crash-loops).
    fn on_oom(&mut self, container: ContainerId, limit_bytes: u64) {
        let _ = (container, limit_bytes);
    }

    /// Registers `container` with its currently applied limits — the
    /// seeding step when a pod spawns mid-run (serverless drivers) or at
    /// deployment (the microsim). Default: no-op, for scalers that learn
    /// lazily from observations alone.
    fn track(&mut self, container: ContainerId, cpu_limit_cores: f64, mem_limit_bytes: u64) {
        let _ = (container, cpu_limit_cores, mem_limit_bytes);
    }

    /// Drops all state for `container` (torn-down pod). Default: no-op.
    /// Scalers that keep per-container state must implement this so
    /// dynamic pod populations do not leak state or emit updates for
    /// dead containers.
    fn forget(&mut self, container: ContainerId) {
        let _ = container;
    }

    /// How often [`PeriodicScaler::recommend`] should be called.
    fn update_period(&self) -> SimDuration;
}

/// Peak resource usage measured for one container during a profiling run
/// (with coarse, seconds-level aggregation — the paper stresses that
/// such tooling "smooths out usage spikes", §VI-C).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct ContainerProfile {
    /// Peak 1-second-averaged CPU usage, in cores.
    pub peak_cpu_cores: f64,
    /// Peak memory usage, in bytes.
    pub peak_mem_bytes: u64,
}

impl ContainerProfile {
    /// Scales the profile by a provisioning factor (0.75× / 1.0× / 1.5×
    /// in the paper's under/best/safe provisioning study).
    pub fn scaled(&self, factor: f64) -> ContainerProfile {
        ContainerProfile {
            peak_cpu_cores: self.peak_cpu_cores * factor,
            peak_mem_bytes: (self.peak_mem_bytes as f64 * factor) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_observation_passes() {
        validate_observation(
            &UsageSample {
                cpu_cores: 1.5,
                mem_bytes: 1 << 20,
            },
            16.0,
        );
        validate_update_period(SimDuration::from_millis(100));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "malformed telemetry"))]
    fn usage_above_capacity_fails_loudly() {
        validate_observation(
            &UsageSample {
                cpu_cores: 17.0,
                mem_bytes: 0,
            },
            16.0,
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "malformed telemetry"))]
    fn nan_usage_fails_loudly() {
        validate_observation(
            &UsageSample {
                cpu_cores: f64::NAN,
                mem_bytes: 0,
            },
            f64::INFINITY,
        );
    }

    #[test]
    #[should_panic(expected = "update period must be non-zero")]
    fn zero_period_fails_loudly() {
        validate_update_period(SimDuration::ZERO);
    }

    #[test]
    fn profile_scaling() {
        let p = ContainerProfile {
            peak_cpu_cores: 2.0,
            peak_mem_bytes: 1000,
        };
        let s = p.scaled(1.5);
        assert_eq!(s.peak_cpu_cores, 3.0);
        assert_eq!(s.peak_mem_bytes, 1500);
    }
}
