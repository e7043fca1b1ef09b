//! Escra tunables.
//!
//! Default values follow the paper's evaluation setup (§VI-A): Υ = 20,
//! δ = 50 MiB, 5-second reclamation, 100 ms report period. γ and κ are
//! stated as 0.2 / 0.8 in the paper; under this reproduction's
//! scale-down reading (shrink the windowed excess *above* γ — see
//! DESIGN.md §4) the behaviour-matched defaults are γ = 0.25, κ = 1.0.

use escra_simcore::time::SimDuration;
use serde::Serialize;

/// Configuration of the Escra Resource Allocator and Controller.
///
/// ```
/// use escra_core::config::EscraConfig;
/// let cfg = EscraConfig::default().with_upsilon(35.0); // ImageProcess setting
/// assert_eq!(cfg.upsilon, 35.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EscraConfig {
    /// Υ — scale-up gain, taken literally from the paper's formula
    /// `throttle_rate · unallocated · Υ` (Υ = 20 for microservices, 35
    /// for ImageProcess). The raw term usually exceeds any sane single
    /// step, so the effective step is bounded by
    /// [`EscraConfig::max_quota_growth_factor`]; Υ then matters when the
    /// pool or the throttle rate is small. See DESIGN.md §4.
    pub upsilon: f64,
    /// γ — scale-down trigger: shrink when `quota − usage > γ` cores.
    pub gamma_cores: f64,
    /// κ — scale-down gain on the windowed mean unused runtime.
    pub kappa: f64,
    /// n — sliding-window length in CFS periods for both windowed
    /// statistics (throttle rate and unused runtime).
    pub window_periods: usize,
    /// δ — memory-reclamation safe margin (paper: 50 MiB).
    pub delta_bytes: u64,
    /// σ — fraction of the global memory limit distributed to containers
    /// at deployment; the remainder is withheld for OOM grants (eq. 2).
    pub sigma: f64,
    /// Bytes granted to a container on an OOM event ("a fixed number of
    /// pages", §IV-D2).
    pub oom_grant_bytes: u64,
    /// Interval of the proactive reclamation loop (paper: 5 s).
    pub reclaim_interval: SimDuration,
    /// CFS period / telemetry report period (paper: 100 ms).
    pub report_period: SimDuration,
    /// Cap on per-period quota growth: a scale-up step never raises a
    /// quota above `quota × max_quota_growth_factor`. The paper's
    /// scale-up term is proportional to the *whole* unallocated pool,
    /// which diverges when the pool is large (e.g. a serverless
    /// namespace); growth capped at doubling per 100 ms period still
    /// closes any realistic gap within a few periods.
    pub max_quota_growth_factor: f64,
    /// Floor for any container CPU quota, in cores.
    pub min_quota_cores: f64,
    /// Floor for any container memory limit, in bytes.
    pub min_mem_bytes: u64,
    /// How long the Controller waits for an Agent ack before re-sending
    /// an OOM memory grant. A lost `SetMemLimit` leaves the trapped
    /// container frozen at its old limit; the retry un-strands it.
    pub grant_retry_timeout: SimDuration,
    /// Re-sends of one grant before the Controller gives up and lets
    /// the container's next OOM event drive reconciliation instead.
    pub grant_max_retries: u32,
}

impl Default for EscraConfig {
    fn default() -> Self {
        EscraConfig {
            upsilon: 20.0,
            gamma_cores: 0.25,
            kappa: 1.0,
            window_periods: 5,
            delta_bytes: 50 * escra_cfs::MIB,
            sigma: 0.8,
            oom_grant_bytes: 32 * escra_cfs::MIB,
            reclaim_interval: SimDuration::from_secs(5),
            report_period: SimDuration::from_millis(100),
            max_quota_growth_factor: 1.5,
            min_quota_cores: 0.05,
            min_mem_bytes: 16 * escra_cfs::MIB,
            grant_retry_timeout: SimDuration::from_millis(500),
            grant_max_retries: 4,
        }
    }
}

impl EscraConfig {
    /// Sets Υ (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `upsilon` is not positive.
    pub fn with_upsilon(mut self, upsilon: f64) -> Self {
        assert!(upsilon > 0.0, "Υ must be positive");
        self.upsilon = upsilon;
        self
    }

    /// Sets γ in cores (builder style).
    pub fn with_gamma(mut self, gamma_cores: f64) -> Self {
        assert!(gamma_cores >= 0.0, "γ must be non-negative");
        self.gamma_cores = gamma_cores;
        self
    }

    /// Sets the sliding-window length (builder style).
    pub fn with_window(mut self, periods: usize) -> Self {
        assert!(periods > 0, "window must be non-empty");
        self.window_periods = periods;
        self
    }

    /// Sets the telemetry/CFS period (builder style). Used by the
    /// report-period sweep experiment (§VI-I).
    pub fn with_report_period(mut self, period: SimDuration) -> Self {
        assert!(!period.is_zero(), "period must be non-zero");
        self.report_period = period;
        self
    }

    /// Sets δ, the reclamation safe margin (builder style).
    pub fn with_delta_bytes(mut self, delta: u64) -> Self {
        self.delta_bytes = delta;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = EscraConfig::default();
        assert_eq!(c.kappa, 1.0);
        assert_eq!(c.gamma_cores, 0.25);
        assert_eq!(c.upsilon, 20.0);
        assert_eq!(c.delta_bytes, 50 * escra_cfs::MIB);
        assert_eq!(c.reclaim_interval, SimDuration::from_secs(5));
        assert_eq!(c.report_period, SimDuration::from_millis(100));
        assert_eq!(c.max_quota_growth_factor, 1.5);
    }

    #[test]
    fn grant_retry_defaults_are_sub_second() {
        // The whole point of the retry is sub-second recovery: a trapped
        // container must not wait out a 5 s reclaim interval.
        let c = EscraConfig::default();
        assert!(c.grant_retry_timeout <= SimDuration::from_secs(1));
        assert!(c.grant_max_retries >= 1);
    }

    #[test]
    fn builders_chain() {
        let c = EscraConfig::default()
            .with_upsilon(35.0)
            .with_gamma(0.1)
            .with_window(10)
            .with_report_period(SimDuration::from_millis(50))
            .with_delta_bytes(10 * escra_cfs::MIB);
        assert_eq!(c.upsilon, 35.0);
        assert_eq!(c.gamma_cores, 0.1);
        assert_eq!(c.window_periods, 10);
        assert_eq!(c.report_period.as_millis(), 50);
        assert_eq!(c.delta_bytes, 10 * escra_cfs::MIB);
    }
}
