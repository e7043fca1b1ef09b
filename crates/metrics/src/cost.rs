//! A cost model for allocation policies: resource-seconds × configurable
//! unit prices, plus an OOM-kill penalty — the Rodriguez/Buyya
//! cost-efficient-orchestration view of the same runs. Escra's advantage
//! is reported in normalized dollars as well as slack: a policy pays for
//! what it *reserves* (the limit), not what it uses, so slack is money.
//!
//! Default unit prices are cloud-shaped (on-demand vCPU ≈ \$0.04048/hr,
//! memory ≈ \$0.004446/GiB-hr — the GCP N1 split), and the OOM penalty is
//! a flat charge per kill approximating restart + lost-work cost. The
//! absolute magnitudes are arbitrary; only the *ratios* between policies
//! on identical workloads are meaningful, which is why tables also print
//! cost normalized to a baseline.

use crate::recorders::RunMetrics;
use crate::serverless::ServerlessStats;
use serde::Serialize;

/// Unit prices, in dollars.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CostModel {
    /// Price of one reserved core for one second.
    pub cpu_core_sec: f64,
    /// Price of one reserved MiB for one second.
    pub mem_mib_sec: f64,
    /// Flat penalty per OOM kill (restart + lost work).
    pub oom_kill: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            // $0.04048 per core-hour.
            cpu_core_sec: 0.04048 / 3600.0,
            // $0.004446 per GiB-hour.
            mem_mib_sec: 0.004446 / 1024.0 / 3600.0,
            oom_kill: 0.01,
        }
    }
}

/// One run's cost, itemized.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct CostBreakdown {
    /// Reserved-CPU cost, in dollars.
    pub cpu: f64,
    /// Reserved-memory cost, in dollars.
    pub mem: f64,
    /// OOM-kill penalties, in dollars.
    pub oom: f64,
}

impl CostBreakdown {
    /// Total cost, in dollars.
    pub fn total(&self) -> f64 {
        self.cpu + self.mem + self.oom
    }
}

impl CostModel {
    /// Cost of one microsim run from its pinned metrics. The aggregate
    /// limit series (cores resp. MiB) is sampled once per second, so
    /// each sample is one core-second (resp. MiB-second) of reservation
    /// at that level.
    pub fn run_cost(&self, m: &RunMetrics) -> CostBreakdown {
        let core_secs: f64 = m.cpu_limit_series.iter().map(|(_, v)| v).sum();
        let mem_mib_secs: f64 = m.mem_limit_series.iter().map(|(_, v)| v).sum();
        CostBreakdown {
            cpu: core_secs * self.cpu_core_sec,
            mem: mem_mib_secs * self.mem_mib_sec,
            oom: m.oom_kills as f64 * self.oom_kill,
        }
    }

    /// Cost of one serverless/trace run from its allocated
    /// resource-seconds (see [`ServerlessStats::record_allocated`]).
    pub fn serverless_cost(&self, s: &ServerlessStats, oom_kills: u64) -> CostBreakdown {
        CostBreakdown {
            cpu: s.alloc_cpu_core_secs * self.cpu_core_sec,
            mem: s.alloc_mem_mib_secs * self.mem_mib_sec,
            oom: oom_kills as f64 * self.oom_kill,
        }
    }

    /// Cost per 1000 successful requests — the cost-efficiency figure
    /// printed in the tables (a policy that is cheap because it fails
    /// requests is not efficient). Infinite when nothing succeeded.
    pub fn per_kilo_request(&self, breakdown: &CostBreakdown, successes: u64) -> f64 {
        if successes == 0 {
            f64::INFINITY
        } else {
            breakdown.total() * 1000.0 / successes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_positive_and_cloud_shaped() {
        let m = CostModel::default();
        assert!(m.cpu_core_sec > 0.0 && m.mem_mib_sec > 0.0 && m.oom_kill > 0.0);
        // A core-second costs far more than a MiB-second.
        assert!(m.cpu_core_sec / m.mem_mib_sec > 1000.0);
    }

    #[test]
    fn run_cost_integrates_limit_series() {
        let model = CostModel {
            cpu_core_sec: 1.0,
            mem_mib_sec: 0.5,
            oom_kill: 10.0,
        };
        let mut m = RunMetrics::new("test");
        for s in 0..3u64 {
            // 3 one-second samples: 2 reserved cores, 4 reserved MiB.
            m.record_limits(escra_simcore::time::SimTime::from_secs(s), 2.0, 4.0);
        }
        m.oom_kills = 2;
        let c = model.run_cost(&m);
        assert_eq!(c.cpu, 6.0);
        assert_eq!(c.mem, 6.0);
        assert_eq!(c.oom, 20.0);
        assert_eq!(c.total(), 32.0);
    }

    #[test]
    fn serverless_cost_uses_allocated_time() {
        let model = CostModel {
            cpu_core_sec: 2.0,
            mem_mib_sec: 1.0,
            oom_kill: 5.0,
        };
        let mut s = ServerlessStats::new();
        s.record_allocated(3.0, 7.0);
        let c = model.serverless_cost(&s, 1);
        assert_eq!(c.cpu, 6.0);
        assert_eq!(c.mem, 7.0);
        assert_eq!(c.oom, 5.0);
    }

    #[test]
    fn per_kilo_request_normalizes() {
        let model = CostModel::default();
        let b = CostBreakdown {
            cpu: 1.0,
            mem: 1.0,
            oom: 0.0,
        };
        assert!((model.per_kilo_request(&b, 4000) - 0.5).abs() < 1e-12);
        assert!(model.per_kilo_request(&b, 0).is_infinite());
    }
}
