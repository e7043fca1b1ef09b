//! Simulated memory cgroup with an OOM-trap hook.
//!
//! Models the part of `mem_cgroup` Escra hooks into: limit/usage
//! accounting via `try_charge()`. When a charge would exceed the limit,
//! instead of killing the container immediately the simulated hook
//! reports [`ChargeOutcome::WouldOom`] — the caller (the Escra Agent /
//! Controller path) may then raise the limit and retry, exactly like the
//! paper's kernel hook in `try_charge()` that catches a container "right
//! before it gets OOMed" (§III).

use serde::Serialize;

/// Bytes per MiB, used throughout the workspace for readability.
pub const MIB: u64 = 1024 * 1024;

/// Kernel page size used when granting "a fixed number of pages" (§IV-D2).
pub const PAGE_BYTES: u64 = 4096;

/// Outcome of a [`MemCgroup::try_charge`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ChargeOutcome {
    /// The charge fit under the limit and was applied.
    Charged,
    /// The charge would exceed the limit; nothing was applied. The hook
    /// forwards this to the Controller as an OOM event.
    WouldOom {
        /// Bytes by which the limit would be exceeded.
        shortfall_bytes: u64,
    },
}

impl ChargeOutcome {
    /// True when the charge was applied.
    pub fn is_charged(&self) -> bool {
        matches!(self, ChargeOutcome::Charged)
    }
}

/// A simulated memory cgroup: limit and usage accounting in bytes.
///
/// ```
/// use escra_cfs::memory::{ChargeOutcome, MemCgroup, MIB};
/// let mut mem = MemCgroup::new(256 * MIB);
/// assert!(mem.try_charge(200 * MIB).is_charged());
/// match mem.try_charge(100 * MIB) {
///     ChargeOutcome::WouldOom { shortfall_bytes } => {
///         assert_eq!(shortfall_bytes, 44 * MIB)
///     }
///     _ => unreachable!(),
/// }
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct MemCgroup {
    limit_bytes: u64,
    usage_bytes: u64,
    peak_bytes: u64,
    nr_oom_events: u64,
}

impl MemCgroup {
    /// Creates a cgroup with the given limit and zero usage.
    ///
    /// # Panics
    ///
    /// Panics if the limit is zero.
    pub fn new(limit_bytes: u64) -> Self {
        assert!(limit_bytes > 0, "memory limit must be positive");
        MemCgroup {
            limit_bytes,
            usage_bytes: 0,
            peak_bytes: 0,
            nr_oom_events: 0,
        }
    }

    /// Current limit in bytes.
    pub fn limit_bytes(&self) -> u64 {
        self.limit_bytes
    }

    /// Current usage in bytes.
    pub fn usage_bytes(&self) -> u64 {
        self.usage_bytes
    }

    /// Peak usage in bytes over the cgroup's lifetime.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Number of would-OOM events observed.
    pub fn nr_oom_events(&self) -> u64 {
        self.nr_oom_events
    }

    /// Attempts to charge `bytes` against the limit.
    ///
    /// On overflow nothing is charged and [`ChargeOutcome::WouldOom`] is
    /// returned with the shortfall; the embedding layer decides whether to
    /// grow the limit and retry (Escra) or kill the container (vanilla).
    pub fn try_charge(&mut self, bytes: u64) -> ChargeOutcome {
        let wanted = self.usage_bytes.saturating_add(bytes);
        if wanted > self.limit_bytes {
            self.nr_oom_events += 1;
            ChargeOutcome::WouldOom {
                shortfall_bytes: wanted - self.limit_bytes,
            }
        } else {
            self.usage_bytes = wanted;
            self.peak_bytes = self.peak_bytes.max(wanted);
            ChargeOutcome::Charged
        }
    }

    /// Releases `bytes` of usage (saturating at zero, like `uncharge`).
    pub fn uncharge(&mut self, bytes: u64) {
        self.usage_bytes = self.usage_bytes.saturating_sub(bytes);
    }

    /// Sets the limit directly (used for scale-up grants).
    ///
    /// # Panics
    ///
    /// Panics if the new limit is zero.
    pub fn set_limit_bytes(&mut self, limit_bytes: u64) {
        assert!(limit_bytes > 0, "memory limit must be positive");
        self.limit_bytes = limit_bytes;
    }

    /// Shrinks the limit toward `target_bytes` but never below current
    /// usage (the kernel would have to reclaim/evict below that; Escra's
    /// Agent only reclaims *unused* memory). Returns the number of bytes
    /// actually reclaimed, the paper's ψ.
    pub fn shrink_to(&mut self, target_bytes: u64) -> u64 {
        let floor = self.usage_bytes.max(1);
        let new_limit = target_bytes.max(floor);
        if new_limit >= self.limit_bytes {
            return 0;
        }
        let reclaimed = self.limit_bytes - new_limit;
        self.limit_bytes = new_limit;
        reclaimed
    }

    /// Resets usage to zero (container restart after an OOM kill).
    pub fn reset_usage(&mut self) {
        self.usage_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_uncharge_roundtrip() {
        let mut m = MemCgroup::new(100 * MIB);
        assert!(m.try_charge(60 * MIB).is_charged());
        assert_eq!(m.usage_bytes(), 60 * MIB);
        m.uncharge(10 * MIB);
        assert_eq!(m.usage_bytes(), 50 * MIB);
        assert_eq!(m.peak_bytes(), 60 * MIB);
    }

    #[test]
    fn would_oom_reports_shortfall_and_charges_nothing() {
        let mut m = MemCgroup::new(100 * MIB);
        m.try_charge(90 * MIB);
        let out = m.try_charge(20 * MIB);
        assert_eq!(
            out,
            ChargeOutcome::WouldOom {
                shortfall_bytes: 10 * MIB
            }
        );
        assert_eq!(m.usage_bytes(), 90 * MIB);
        assert_eq!(m.nr_oom_events(), 1);
    }

    #[test]
    fn grant_then_retry_succeeds() {
        // The Escra flow: would-OOM -> Controller grants -> retry charges.
        let mut m = MemCgroup::new(100 * MIB);
        m.try_charge(95 * MIB);
        assert!(!m.try_charge(32 * MIB).is_charged());
        m.set_limit_bytes(m.limit_bytes() + 32 * MIB);
        assert!(m.try_charge(32 * MIB).is_charged());
        assert_eq!(m.usage_bytes(), 127 * MIB);
    }

    #[test]
    fn shrink_respects_usage_floor() {
        let mut m = MemCgroup::new(256 * MIB);
        m.try_charge(100 * MIB);
        // Reclaim toward usage + 50 MiB: psi = 256 - 150 = 106 MiB.
        let psi = m.shrink_to(150 * MIB);
        assert_eq!(psi, 106 * MIB);
        assert_eq!(m.limit_bytes(), 150 * MIB);
        // Shrinking below usage clamps at usage.
        let psi = m.shrink_to(10 * MIB);
        assert_eq!(psi, 50 * MIB);
        assert_eq!(m.limit_bytes(), 100 * MIB);
        // No-op shrink returns zero.
        assert_eq!(m.shrink_to(200 * MIB), 0);
    }

    #[test]
    fn uncharge_saturates() {
        let mut m = MemCgroup::new(MIB);
        m.uncharge(5);
        assert_eq!(m.usage_bytes(), 0);
    }

    #[test]
    fn reset_usage_clears() {
        let mut m = MemCgroup::new(MIB);
        m.try_charge(MIB / 2);
        m.reset_usage();
        assert_eq!(m.usage_bytes(), 0);
        assert_eq!(m.peak_bytes(), MIB / 2);
    }

    #[test]
    #[should_panic(expected = "memory limit must be positive")]
    fn zero_limit_panics() {
        MemCgroup::new(0);
    }
}
