//! Simulated CFS bandwidth control.
//!
//! Models the Linux CFS quota/period mechanism ("CPU bandwidth control for
//! CFS", Turner et al.): a cgroup holds `quota` runtime per `period`;
//! execution draws the runtime down; when it reaches zero the group is
//! **throttled** for the rest of the period; at the period boundary the
//! runtime is refilled and — this is Escra's kernel hook — the per-period
//! statistics (quota, unused runtime, whether throttled) are exported.

use escra_simcore::time::SimDuration;
use serde::Serialize;

/// The default CFS period (100 ms), matching both Linux and the paper's
/// telemetry report period (§VI-I "Why a 100ms Report Period?").
pub const DEFAULT_PERIOD: SimDuration = SimDuration::from_millis(100);

/// Floor on a CPU limit so a container can always make minimal progress,
/// mirroring the kernel's 1 ms minimum quota.
pub const MIN_QUOTA_CORES: f64 = 0.01;

/// Per-period statistics exported by the Escra kernel hook at each period
/// boundary (paper §IV-B): the cgroup quota, the unused runtime left in
/// the CFS bandwidth structure, and whether the group was throttled.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CpuPeriodStats {
    /// Quota at the end of the period, in cores (quota_us / period_us).
    pub quota_cores: f64,
    /// Unused runtime at the period boundary, in core-microseconds.
    pub unused_runtime_us: f64,
    /// CPU actually consumed this period, in core-microseconds.
    pub usage_us: f64,
    /// Whether the group exhausted its runtime and was throttled.
    pub throttled: bool,
}

/// Millicores per core: the fixed-point scale of the columnar wire
/// form's quota column (a u32 of millicores spans 0..4.29M cores,
/// far beyond any machine).
pub const MCORES_PER_CORE: f64 = 1000.0;

impl CpuPeriodStats {
    /// Quantizes to the columnar wire form's fixed-point integer fields:
    /// `(quota_mcores, unused_us, usage_us, throttled)`. Quota rounds to
    /// the nearest millicore; the microsecond fields round to the
    /// nearest whole microsecond (the granularity the kernel hook
    /// actually exports — the simulator's fractional microseconds are an
    /// artifact of its fluid model). Values are clamped to the u32
    /// range; NaN saturates to zero.
    pub fn to_fixed_point(&self) -> (u32, u32, u32, bool) {
        (
            quantize(self.quota_cores * MCORES_PER_CORE),
            quantize(self.unused_runtime_us),
            quantize(self.usage_us),
            self.throttled,
        )
    }

    /// Reconstructs per-period statistics from the columnar wire form's
    /// fixed-point fields. Every u32 is exactly representable in f64, so
    /// `from_fixed_point(a, b, c, t)` round-trips bit-for-bit through
    /// [`CpuPeriodStats::to_fixed_point`] — the identity the columnar
    /// ingest path's decision-equivalence proofs rest on.
    pub fn from_fixed_point(
        quota_mcores: u32,
        unused_us: u32,
        usage_us: u32,
        throttled: bool,
    ) -> Self {
        CpuPeriodStats {
            quota_cores: quota_mcores as f64 / MCORES_PER_CORE,
            unused_runtime_us: unused_us as f64,
            usage_us: usage_us as f64,
            throttled,
        }
    }

    /// CPU usage in cores over the period.
    pub fn usage_cores(&self, period: SimDuration) -> f64 {
        self.usage_us / period.as_micros() as f64
    }

    /// Unused runtime in cores over the period (the windowed scale-down
    /// statistic the Resource Allocator ingests).
    #[inline]
    pub fn unused_cores(&self, period: SimDuration) -> f64 {
        self.unused_runtime_us / period.as_micros() as f64
    }
}

/// `x.round().clamp(0.0, u32::MAX as f64) as u32` — nearest integer, ties
/// away from zero, saturating — without the libm `round` call the default
/// x86-64 target (no SSE4.1 `roundsd`) makes of it, three times per
/// telemetry entry. The cast truncates and sends NaN and every negative
/// to 0; `x - trunc(x)` is exact, so the tie test rounds as `round` does.
fn quantize(x: f64) -> u32 {
    if x >= u32::MAX as f64 {
        return u32::MAX;
    }
    let whole = x as u32;
    whole + (x - whole as f64 >= 0.5) as u32
}

/// A simulated CFS bandwidth controller for one cgroup.
///
/// Time advances in whole periods: the embedding simulation calls
/// [`CpuBandwidth::consume`] (possibly several times) while executing a
/// period, then [`CpuBandwidth::end_period`] at the boundary, which
/// returns the telemetry and refills the runtime.
///
/// ```
/// use escra_cfs::cpu::CpuBandwidth;
/// let mut bw = CpuBandwidth::new(2.0); // 2-core limit, 100 ms period
/// let granted = bw.consume(250_000.0); // wants 2.5 cores' worth
/// assert_eq!(granted, 200_000.0);      // capped at the quota
/// let stats = bw.end_period();
/// assert!(stats.throttled);
/// assert_eq!(stats.unused_runtime_us, 0.0);
/// ```
///
/// `repr(C)`, the current period's fields first and the lifetime
/// counters last: a simulation keeps one per container and walks all of
/// them every period.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct CpuBandwidth {
    quota_cores: f64,
    runtime_remaining_us: f64,
    usage_this_period_us: f64,
    throttled_this_period: bool,
    period: SimDuration,
    nr_periods: u64,
    nr_throttled: u64,
    total_usage_us: f64,
}

impl CpuBandwidth {
    /// Creates a controller with the given quota (in cores) and the
    /// default 100 ms period.
    ///
    /// # Panics
    ///
    /// Panics if `quota_cores` is not finite and positive.
    pub fn new(quota_cores: f64) -> Self {
        Self::with_period(quota_cores, DEFAULT_PERIOD)
    }

    /// Creates a controller with an explicit period.
    ///
    /// # Panics
    ///
    /// Panics if `quota_cores` is not finite/positive or the period is zero.
    pub fn with_period(quota_cores: f64, period: SimDuration) -> Self {
        assert!(
            quota_cores.is_finite() && quota_cores > 0.0,
            "quota must be positive, got {quota_cores}"
        );
        assert!(!period.is_zero(), "period must be non-zero");
        let mut bw = CpuBandwidth {
            period,
            quota_cores,
            runtime_remaining_us: 0.0,
            usage_this_period_us: 0.0,
            throttled_this_period: false,
            nr_periods: 0,
            nr_throttled: 0,
            total_usage_us: 0.0,
        };
        bw.refill();
        bw
    }

    fn refill(&mut self) {
        self.runtime_remaining_us = self.quota_cores * self.period.as_micros() as f64;
        self.usage_this_period_us = 0.0;
        self.throttled_this_period = false;
    }

    /// The CFS period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Current quota in cores.
    pub fn quota_cores(&self) -> f64 {
        self.quota_cores
    }

    /// Runtime still available this period, in core-microseconds.
    pub fn runtime_remaining_us(&self) -> f64 {
        self.runtime_remaining_us
    }

    /// Whether the group has been throttled in the current period.
    pub fn is_throttled(&self) -> bool {
        self.throttled_this_period
    }

    /// Lifetime number of completed periods.
    pub fn nr_periods(&self) -> u64 {
        self.nr_periods
    }

    /// Lifetime number of throttled periods.
    pub fn nr_throttled(&self) -> u64 {
        self.nr_throttled
    }

    /// Lifetime CPU usage in core-microseconds.
    pub fn total_usage_us(&self) -> f64 {
        self.total_usage_us
    }

    /// Updates the quota (Escra applies this mid-period without restart;
    /// extra headroom becomes available immediately, mirroring a runtime
    /// write to `cpu.cfs_quota_us`).
    ///
    /// The quota is clamped to [`MIN_QUOTA_CORES`].
    pub fn set_quota_cores(&mut self, quota_cores: f64) {
        let new_quota = quota_cores.max(MIN_QUOTA_CORES);
        let delta_us = (new_quota - self.quota_cores) * self.period.as_micros() as f64;
        self.quota_cores = new_quota;
        // Adjust this period's remaining runtime by the delta, never
        // below 0. `throttled_this_period` is deliberately left set: the
        // group *was* throttled this period, and the kernel's
        // nr_throttled stays incremented after a quota raise — clearing
        // it here erased the throttle signal from this period's
        // telemetry. The group still runs again immediately because
        // runtime is available.
        self.runtime_remaining_us = (self.runtime_remaining_us + delta_us).max(0.0);
    }

    /// Attempts to consume `request_us` core-microseconds of runtime.
    ///
    /// Returns the amount actually granted; requesting more than the
    /// remaining runtime marks the group throttled, exactly like the
    /// kernel's `__account_cfs_rq_runtime`.
    pub fn consume(&mut self, request_us: f64) -> f64 {
        debug_assert!(request_us >= 0.0);
        if request_us <= 0.0 {
            return 0.0;
        }
        let granted = request_us.min(self.runtime_remaining_us);
        self.runtime_remaining_us -= granted;
        self.usage_this_period_us += granted;
        self.total_usage_us += granted;
        if granted + 1e-9 < request_us {
            self.throttled_this_period = true;
        }
        granted
    }

    /// Marks the group throttled for the current period.
    ///
    /// Used by embeddings that arbitrate CPU externally (node-level
    /// max–min sharing) and then account usage with [`CpuBandwidth::consume`]:
    /// when the *quota* — not the node — was the binding constraint on a
    /// group that still had work queued, the group is throttled exactly
    /// as `__account_cfs_rq_runtime` would have done.
    pub fn mark_throttled(&mut self) {
        self.throttled_this_period = true;
    }

    /// Closes the current period: returns the kernel-hook telemetry and
    /// refills the runtime for the next period (paper §IV-B: "after the
    /// hook finishes writing data to the buffer, the runtime of the cgroup
    /// is refilled and the next period begins").
    pub fn end_period(&mut self) -> CpuPeriodStats {
        let stats = CpuPeriodStats {
            quota_cores: self.quota_cores,
            unused_runtime_us: self.runtime_remaining_us,
            usage_us: self.usage_this_period_us,
            throttled: self.throttled_this_period,
        };
        self.nr_periods += 1;
        if self.throttled_this_period {
            self.nr_throttled += 1;
        }
        self.refill();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn under_quota_is_not_throttled() {
        let mut bw = CpuBandwidth::new(1.0);
        assert_eq!(bw.consume(40_000.0), 40_000.0);
        let s = bw.end_period();
        assert!(!s.throttled);
        assert_eq!(s.usage_us, 40_000.0);
        assert_eq!(s.unused_runtime_us, 60_000.0);
        assert!((s.usage_cores(bw.period()) - 0.4).abs() < 1e-12);
        assert!((s.unused_cores(bw.period()) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn over_quota_throttles_and_caps() {
        let mut bw = CpuBandwidth::new(0.5);
        let granted = bw.consume(80_000.0);
        assert_eq!(granted, 50_000.0);
        assert!(bw.is_throttled());
        let s = bw.end_period();
        assert!(s.throttled);
        assert_eq!(s.unused_runtime_us, 0.0);
        assert_eq!(bw.nr_throttled(), 1);
        assert_eq!(bw.nr_periods(), 1);
    }

    #[test]
    fn refill_after_period() {
        let mut bw = CpuBandwidth::new(1.0);
        bw.consume(100_000.0);
        bw.end_period();
        assert_eq!(bw.runtime_remaining_us(), 100_000.0);
        assert!(!bw.is_throttled());
    }

    #[test]
    fn quota_raise_mid_period_restores_runtime_but_keeps_throttle_telemetry() {
        let mut bw = CpuBandwidth::new(0.5);
        bw.consume(60_000.0); // throttled at 50k
        assert!(bw.is_throttled());
        bw.set_quota_cores(1.0); // Escra scales up without restart
                                 // Runtime is available again and consumption proceeds...
        assert_eq!(bw.runtime_remaining_us(), 50_000.0);
        let granted = bw.consume(10_000.0);
        assert_eq!(granted, 10_000.0);
        // ...but the period's throttle signal survives, matching the
        // kernel's nr_throttled semantics.
        assert!(bw.is_throttled());
        let s = bw.end_period();
        assert!(s.throttled);
        assert_eq!(bw.nr_throttled(), 1);
        // The next period starts clean.
        assert!(!bw.is_throttled());
    }

    #[test]
    fn quota_lower_clamps_remaining_runtime() {
        let mut bw = CpuBandwidth::new(2.0);
        bw.consume(150_000.0);
        bw.set_quota_cores(1.0); // remaining 50k - 100k -> 0
        assert_eq!(bw.runtime_remaining_us(), 0.0);
        assert_eq!(bw.quota_cores(), 1.0);
    }

    #[test]
    fn quota_floor_enforced() {
        let mut bw = CpuBandwidth::new(1.0);
        bw.set_quota_cores(0.0001);
        assert_eq!(bw.quota_cores(), MIN_QUOTA_CORES);
    }

    #[test]
    fn multiple_consumes_accumulate() {
        let mut bw = CpuBandwidth::new(1.0);
        bw.consume(30_000.0);
        bw.consume(30_000.0);
        let s = bw.end_period();
        assert_eq!(s.usage_us, 60_000.0);
        assert!(!s.throttled);
        assert_eq!(bw.total_usage_us(), 60_000.0);
    }

    #[test]
    fn quantize_is_round_then_clamp_to_the_bit() {
        let reference = |x: f64| x.round().clamp(0.0, u32::MAX as f64) as u32;
        let check =
            |x: f64| assert_eq!(quantize(x), reference(x), "x = {x:e} ({:#x})", x.to_bits());
        let max = u32::MAX as f64;
        for x in [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            -0.4,
            -0.5,
            -0.6,
            -1e300,
            f64::MIN_POSITIVE,
            5e-324,
            0.49999999999999994, // the largest double below one half
            0.5,
            0.5000000000000001,
            max - 1.0,
            max - 0.5000000000000001,
            max - 0.5,
            max - 0.4999999999999999,
            max,
            max + 0.5,
            max + 1.0,
            9007199254740992.0,     // 2^53
            18446744073709551616.0, // 2^64: a u64 truncation would wrap past it
            36893488147419103232.0, // 2^65
            1e300,
            f64::MAX,
        ] {
            check(x);
        }
        assert_eq!(quantize(18446744073709551616.0), u32::MAX);
        // Ties and their neighbours on both sides: every one below 2^24
        // (all a telemetry field holds in practice), a stride above it,
        // and the last few before saturation.
        let dense = 0..1u32 << 24;
        let sparse = (1u32 << 24..=u32::MAX).step_by(257);
        for n in dense.chain(sparse).chain(u32::MAX - 3..=u32::MAX) {
            let tie = n as f64 + 0.5;
            check(tie);
            check(f64::from_bits(tie.to_bits() - 1));
            check(f64::from_bits(tie.to_bits() + 1));
        }
        // 10^8 raw bit patterns: half anywhere in the double range, half
        // with the exponent drawn so the value lands near the u32 range.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..50_000_000u32 {
            let raw = next();
            check(f64::from_bits(raw));
            let exponent = 1021 + (raw >> 52) % 36; // 2^-2 ..= 2^33
            let in_range = (raw & ((1 << 52) - 1)) | (exponent << 52) | (raw & (1 << 63));
            check(f64::from_bits(in_range));
        }
    }

    #[test]
    fn zero_request_is_noop() {
        let mut bw = CpuBandwidth::new(1.0);
        assert_eq!(bw.consume(0.0), 0.0);
        assert!(!bw.is_throttled());
    }

    #[test]
    #[should_panic(expected = "quota must be positive")]
    fn invalid_quota_panics() {
        CpuBandwidth::new(0.0);
    }

    #[test]
    fn custom_period() {
        let mut bw = CpuBandwidth::with_period(1.0, SimDuration::from_millis(50));
        assert_eq!(bw.runtime_remaining_us(), 50_000.0);
        bw.consume(50_000.0);
        bw.consume(1.0);
        assert!(bw.is_throttled());
    }
}
