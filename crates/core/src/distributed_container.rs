//! The Distributed Container abstraction (paper §III, Fig. 3).
//!
//! A Distributed Container caps the *aggregate* CPU and memory of all
//! containers belonging to one application/tenant, across hosts, and —
//! unlike Kubernetes Resource Quotas, which are checked only at admission
//! — enforces the cap continuously at runtime: every quota grant draws
//! from the global pool and every shrink returns to it.

use escra_cluster::AppId;
use serde::Serialize;

/// Global resource pool for one application.
///
/// Invariants (checked in debug builds and by property tests):
/// * `allocated_cpu_cores ≤ cpu_limit_cores`
/// * `allocated_mem_bytes ≤ mem_limit_bytes`
///
/// ```
/// use escra_core::distributed_container::DistributedContainer;
/// use escra_cluster::AppId;
///
/// let mut dc = DistributedContainer::new(AppId::new(0), 8.0, 1 << 30);
/// assert_eq!(dc.try_allocate_cpu(3.0), 3.0);
/// assert_eq!(dc.try_allocate_cpu(10.0), 5.0); // capped at the pool
/// dc.release_cpu(2.0);
/// assert_eq!(dc.unallocated_cpu_cores(), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DistributedContainer {
    app: AppId,
    cpu_limit_cores: f64,
    mem_limit_bytes: u64,
    allocated_cpu_cores: f64,
    allocated_mem_bytes: u64,
}

impl DistributedContainer {
    /// Creates a pool with the application's global limits (Ωl for CPU).
    ///
    /// # Panics
    ///
    /// Panics if either limit is non-positive.
    pub fn new(app: AppId, cpu_limit_cores: f64, mem_limit_bytes: u64) -> Self {
        assert!(
            cpu_limit_cores > 0.0 && cpu_limit_cores.is_finite(),
            "global CPU limit must be positive"
        );
        assert!(mem_limit_bytes > 0, "global memory limit must be positive");
        DistributedContainer {
            app,
            cpu_limit_cores,
            mem_limit_bytes,
            allocated_cpu_cores: 0.0,
            allocated_mem_bytes: 0,
        }
    }

    /// The application this pool belongs to.
    pub fn app(&self) -> AppId {
        self.app
    }

    /// The global CPU limit Ωl, in cores.
    pub fn cpu_limit_cores(&self) -> f64 {
        self.cpu_limit_cores
    }

    /// The global memory limit, in bytes.
    pub fn mem_limit_bytes(&self) -> u64 {
        self.mem_limit_bytes
    }

    /// CPU currently handed out as container quotas, in cores.
    pub fn allocated_cpu_cores(&self) -> f64 {
        self.allocated_cpu_cores
    }

    /// Memory currently handed out as container limits, in bytes.
    pub fn allocated_mem_bytes(&self) -> u64 {
        self.allocated_mem_bytes
    }

    /// Unallocated CPU runtime for the application — the
    /// `Ωl − Σ C(i)q` term of the scale-up formula.
    pub fn unallocated_cpu_cores(&self) -> f64 {
        (self.cpu_limit_cores - self.allocated_cpu_cores).max(0.0)
    }

    /// Unallocated memory available for OOM grants.
    pub fn unallocated_mem_bytes(&self) -> u64 {
        self.mem_limit_bytes
            .saturating_sub(self.allocated_mem_bytes)
    }

    /// Allocates up to `cores` from the pool; returns the amount granted
    /// (possibly less than requested, never negative).
    pub fn try_allocate_cpu(&mut self, cores: f64) -> f64 {
        debug_assert!(cores >= 0.0);
        let grant = cores.max(0.0).min(self.unallocated_cpu_cores());
        self.allocated_cpu_cores += grant;
        debug_assert!(self.allocated_cpu_cores <= self.cpu_limit_cores + 1e-9);
        grant
    }

    /// Returns `cores` to the pool (saturating at zero allocated).
    pub fn release_cpu(&mut self, cores: f64) {
        debug_assert!(cores >= 0.0);
        self.allocated_cpu_cores = (self.allocated_cpu_cores - cores.max(0.0)).max(0.0);
    }

    /// Allocates up to `bytes` of memory; returns the granted amount.
    pub fn try_allocate_mem(&mut self, bytes: u64) -> u64 {
        let grant = bytes.min(self.unallocated_mem_bytes());
        self.allocated_mem_bytes += grant;
        grant
    }

    /// Returns `bytes` to the pool — the ψ reclaimed by Agents flows back
    /// here ("global_mem_limit ← global_mem_limit + ψ" in §IV-C is the
    /// unallocated pool growing).
    pub fn release_mem(&mut self, bytes: u64) {
        self.allocated_mem_bytes = self.allocated_mem_bytes.saturating_sub(bytes);
    }

    /// Fraction of the CPU limit currently allocated, in `[0, 1]`.
    pub fn cpu_utilization_of_limit(&self) -> f64 {
        self.allocated_cpu_cores / self.cpu_limit_cores
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dc() -> DistributedContainer {
        DistributedContainer::new(AppId::new(1), 4.0, 1000)
    }

    #[test]
    fn cpu_pool_caps_at_limit() {
        let mut p = dc();
        assert_eq!(p.try_allocate_cpu(3.0), 3.0);
        assert_eq!(p.try_allocate_cpu(3.0), 1.0);
        assert_eq!(p.unallocated_cpu_cores(), 0.0);
        assert_eq!(p.try_allocate_cpu(1.0), 0.0);
    }

    #[test]
    fn cpu_release_replenishes() {
        let mut p = dc();
        p.try_allocate_cpu(4.0);
        p.release_cpu(1.5);
        assert!((p.unallocated_cpu_cores() - 1.5).abs() < 1e-12);
        // Over-release saturates rather than going negative.
        p.release_cpu(100.0);
        assert_eq!(p.allocated_cpu_cores(), 0.0);
        assert_eq!(p.unallocated_cpu_cores(), 4.0);
    }

    #[test]
    fn mem_pool_grant_and_reclaim() {
        let mut p = dc();
        assert_eq!(p.try_allocate_mem(800), 800);
        assert_eq!(p.try_allocate_mem(500), 200);
        assert_eq!(p.unallocated_mem_bytes(), 0);
        p.release_mem(300); // ψ returned by an Agent
        assert_eq!(p.unallocated_mem_bytes(), 300);
        assert_eq!(p.allocated_mem_bytes(), 700);
    }

    #[test]
    fn utilization_fraction() {
        let mut p = dc();
        p.try_allocate_cpu(2.0);
        assert_eq!(p.cpu_utilization_of_limit(), 0.5);
    }

    #[test]
    #[should_panic(expected = "global CPU limit must be positive")]
    fn invalid_limits_panic() {
        DistributedContainer::new(AppId::new(0), 0.0, 100);
    }
}
