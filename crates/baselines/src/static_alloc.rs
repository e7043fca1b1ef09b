//! Static allocation — the "common practice" baseline (§VI-B/C).
//!
//! Limits are set once, to `factor ×` the profiled peak usage of each
//! container, and never change. The paper evaluates 0.75× (underutilized),
//! 1.0× (best estimate) and 1.5× (safe buffer), settling on 1.5× for the
//! comparisons.

use crate::types::{
    validate_observation, ContainerProfile, LimitUpdate, PeriodicScaler, UsageSample,
};
use escra_cluster::ContainerId;
use escra_simcore::time::SimDuration;
use std::collections::BTreeMap;

/// The static allocation policy: per-container fixed limits derived from
/// a profiling run.
///
/// ```
/// use escra_baselines::static_alloc::StaticPolicy;
/// use escra_baselines::types::{ContainerProfile, PeriodicScaler};
/// use escra_cluster::ContainerId;
///
/// let mut profiles = std::collections::BTreeMap::new();
/// profiles.insert(
///     ContainerId::new(0),
///     ContainerProfile { peak_cpu_cores: 2.0, peak_mem_bytes: 100 << 20 },
/// );
/// let mut policy = StaticPolicy::from_profiles(&profiles, 1.5);
/// let updates = policy.recommend();
/// assert_eq!(updates[0].cpu_limit_cores, Some(3.0));
/// ```
#[derive(Debug, Clone)]
pub struct StaticPolicy {
    limits: BTreeMap<ContainerId, ContainerProfile>,
    factor: f64,
    emitted: bool,
}

impl StaticPolicy {
    /// Builds the policy from profiled peaks and a provisioning factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    pub fn from_profiles(profiles: &BTreeMap<ContainerId, ContainerProfile>, factor: f64) -> Self {
        assert!(factor > 0.0, "provisioning factor must be positive");
        StaticPolicy {
            limits: profiles
                .iter()
                .map(|(id, p)| (*id, p.scaled(factor)))
                .collect(),
            factor,
            emitted: false,
        }
    }

    /// The provisioning factor in use.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// The fixed limits, as one-shot updates applied at deployment.
    fn initial_limits(&self) -> Vec<LimitUpdate> {
        self.limits
            .iter()
            .map(|(id, p)| LimitUpdate {
                container: *id,
                cpu_limit_cores: Some(p.peak_cpu_cores.max(0.05)),
                mem_limit_bytes: Some(p.peak_mem_bytes.max(1)),
                requires_restart: false,
            })
            .collect()
    }

    /// The fixed memory limit for one container, if profiled.
    pub fn mem_limit_of(&self, container: ContainerId) -> Option<u64> {
        self.limits.get(&container).map(|p| p.peak_mem_bytes)
    }
}

/// The degenerate periodic scaler: emits [`StaticPolicy::initial_limits`]
/// exactly once, then stays silent forever — letting the conformance
/// suite and the drivers treat "common practice" as just another policy
/// behind the shared trait.
impl PeriodicScaler for StaticPolicy {
    fn observe(&mut self, _container: ContainerId, sample: UsageSample) {
        validate_observation(&sample, f64::INFINITY);
    }

    fn recommend(&mut self) -> Vec<LimitUpdate> {
        if self.emitted {
            return Vec::new();
        }
        self.emitted = true;
        self.initial_limits()
    }

    fn update_period(&self) -> SimDuration {
        SimDuration::from_secs(60)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiles() -> BTreeMap<ContainerId, ContainerProfile> {
        let mut m = BTreeMap::new();
        m.insert(
            ContainerId::new(0),
            ContainerProfile {
                peak_cpu_cores: 1.0,
                peak_mem_bytes: 100,
            },
        );
        m.insert(
            ContainerId::new(1),
            ContainerProfile {
                peak_cpu_cores: 2.0,
                peak_mem_bytes: 200,
            },
        );
        m
    }

    #[test]
    fn applies_factor_to_every_container() {
        let p = StaticPolicy::from_profiles(&profiles(), 1.5);
        assert_eq!(p.initial_limits()[0].cpu_limit_cores, Some(1.5));
        assert_eq!(p.mem_limit_of(ContainerId::new(1)), Some(300));
        assert_eq!(p.factor(), 1.5);
        assert_eq!(p.initial_limits().len(), 2);
    }

    #[test]
    fn limits_never_change() {
        let p = StaticPolicy::from_profiles(&profiles(), 1.0);
        let a = p.initial_limits();
        let b = p.initial_limits();
        assert_eq!(a, b);
        assert!(a.iter().all(|u| !u.requires_restart));
    }

    #[test]
    fn unknown_container_is_none() {
        let p = StaticPolicy::from_profiles(&profiles(), 1.0);
        assert_eq!(p.mem_limit_of(ContainerId::new(9)), None);
    }

    #[test]
    #[should_panic(expected = "factor must be positive")]
    fn zero_factor_panics() {
        StaticPolicy::from_profiles(&profiles(), 0.0);
    }

    #[test]
    fn trait_impl_emits_once_then_goes_quiet() {
        let mut p = StaticPolicy::from_profiles(&profiles(), 1.5);
        p.observe(
            ContainerId::new(0),
            UsageSample {
                cpu_cores: 0.5,
                mem_bytes: 10,
            },
        );
        assert_eq!(p.recommend().len(), 2, "one-shot initial limits");
        for _ in 0..5 {
            assert!(p.recommend().is_empty(), "static limits never change");
        }
        assert_eq!(p.update_period(), SimDuration::from_secs(60));
    }
}
