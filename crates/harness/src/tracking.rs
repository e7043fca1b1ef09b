//! The Fig. 2 experiment: Escra's CPU limit tracking a dynamic
//! sysbench-style load on a single container.
//!
//! The container runs under the control plane every `microsim` cell
//! runs under, on a fault-free fabric: each period's statistic goes to
//! the Controller as its node's datagram, and the Controller's commands,
//! its reclaim sweeps and the Agent's reclaim reports all travel it.

use crate::control_plane::ControlPlane;
use escra_cfs::MIB;
use escra_cluster::{AppId, Cluster, ContainerId, ContainerSpec, NodeSpec};
use escra_core::{AppConfig, CpuStatsEntry, EscraConfig};
use escra_metrics::trace::NoopSink;
use escra_net::FaultPlan;
use escra_simcore::time::{SimDuration, SimTime};
use escra_simcore::timeseries::TimeSeries;
use escra_workloads::SysbenchLoad;

/// Result of the tracking experiment: limit and usage over time, both in
/// cores, sampled once per CFS period — exactly the two series of Fig. 2.
#[derive(Debug)]
pub struct TrackingResult {
    /// The container's CPU limit over time.
    pub limit: TimeSeries,
    /// The container's CPU usage over time.
    pub usage: TimeSeries,
    /// Number of throttled periods.
    pub throttles: u64,
}

impl TrackingResult {
    /// Mean absolute slack (limit − usage) in cores over the run.
    pub fn mean_slack_cores(&self) -> f64 {
        let n = self.limit.len().min(self.usage.len());
        if n == 0 {
            return 0.0;
        }
        self.limit
            .iter()
            .zip(self.usage.iter())
            .map(|((_, l), (_, u))| (l - u).max(0.0))
            .sum::<f64>()
            / n as f64
    }
}

/// Runs the Fig. 2 experiment: one container, the given demand schedule,
/// Escra allocation with a global limit of `global_cpu_cores`.
pub fn run_tracking(
    cfg: &EscraConfig,
    load: &SysbenchLoad,
    global_cpu_cores: f64,
    duration: SimDuration,
) -> TrackingResult {
    track(cfg, load, global_cpu_cores, duration).0
}

/// [`run_tracking`], also returning the plane, the cluster and the
/// container it ran.
fn track(
    cfg: &EscraConfig,
    load: &SysbenchLoad,
    global_cpu_cores: f64,
    duration: SimDuration,
) -> (TrackingResult, ControlPlane, Cluster, ContainerId) {
    let app_id = AppId::new(0);
    let mut cluster = Cluster::new(vec![NodeSpec {
        cores: 8,
        mem_bytes: 16 * 1024 * MIB,
    }]);
    let app = AppConfig {
        app: app_id,
        name: "sysbench".into(),
        global_cpu_cores,
        global_mem_bytes: 1024 * MIB,
        containers: vec![
            ContainerSpec::new("sysbench", app_id).with_restart_delay(SimDuration::ZERO)
        ],
    };
    let (mut plane, ids) =
        ControlPlane::deploy(cfg, &app, &mut cluster, FaultPlan::none(), 0, |_| NoopSink);
    let cid = ids[0];
    let node = cluster.nodes()[0].id();
    cluster.tick(SimTime::ZERO);

    let period = cfg.report_period;
    let period_us = period.as_micros() as f64;
    let mut limit = TimeSeries::new("limit_cores");
    let mut usage = TimeSeries::new("usage_cores");
    let mut throttles = 0;
    let mut backlog_us = 0.0f64;

    let mut entries = Vec::with_capacity(1);
    let mut t = SimTime::ZERO;
    while t < SimTime::ZERO + duration {
        let t_next = t + period;
        // Demand for this period plus any backlog from throttled periods
        // (sysbench threads keep the work queued).
        let demand = load.work_in_us(t, t_next) + backlog_us;
        let c = cluster.container_mut(cid).expect("container");
        let granted = c.cpu.consume(demand);
        backlog_us = (demand - granted).min(8.0 * period_us); // bounded queue
        let stats = c.cpu.end_period();
        if stats.throttled {
            throttles += 1;
        }
        limit.record(t_next, stats.quota_cores);
        usage.record(t_next, stats.usage_us / period_us);
        entries.push(CpuStatsEntry {
            container: cid,
            stats,
        });
        plane.report(&mut cluster, t_next, node, &mut entries);
        plane.tick(&mut cluster, t_next);
        t = t_next;
    }
    let result = TrackingResult {
        limit,
        usage,
        throttles,
    };
    (result, plane, cluster, cid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limit_tracks_demand_phases() {
        let result = run_tracking(
            &EscraConfig::default(),
            &SysbenchLoad::paper_fig2(),
            5.0,
            SimDuration::from_secs(40),
        );
        assert_eq!(result.limit.len(), 400);
        // Late in the 4-core phase (t≈26s) the limit must have grown to
        // cover the demand...
        let around = |ts: &TimeSeries, sec: f64| -> f64 {
            ts.iter()
                .filter(|(t, _)| (t.as_secs_f64() - sec).abs() < 0.5)
                .map(|(_, v)| v)
                .sum::<f64>()
                / ts.iter()
                    .filter(|(t, _)| (t.as_secs_f64() - sec).abs() < 0.5)
                    .count()
                    .max(1) as f64
        };
        assert!(
            around(&result.limit, 26.0) > 3.5,
            "limit at 26s: {}",
            around(&result.limit, 26.0)
        );
        // ...and during the later 1-core phase it must have shrunk back.
        assert!(
            around(&result.limit, 32.0) < 2.0,
            "limit at 32s: {}",
            around(&result.limit, 32.0)
        );
        // Mean slack stays small: the whole point of Fig. 2.
        assert!(
            result.mean_slack_cores() < 0.8,
            "slack {}",
            result.mean_slack_cores()
        );
    }

    #[test]
    fn the_books_match_the_cgroups_after_a_reclaim_sweep() {
        // Past the first 5 s sweep: the Agent shrank the container's
        // memory limit, and its report returned ψ to the pool.
        let (_, plane, cluster, cid) = track(
            &EscraConfig::default(),
            &SysbenchLoad::paper_fig2(),
            5.0,
            SimDuration::from_secs(6),
        );
        let cgroup = cluster.container(cid).expect("container");
        let books = plane.controller.allocator();
        assert!(plane.controller.stats().reclaimed_bytes > 0);
        assert_eq!(books.mem_limit_of(cid), Some(cgroup.mem.limit_bytes()));
        let pool = books.app_pool(AppId::new(0)).expect("pool");
        assert_eq!(pool.allocated_mem_bytes(), cgroup.mem.limit_bytes());
        assert_eq!(books.quota_of(cid), Some(cgroup.cpu.quota_cores()));
    }

    #[test]
    fn deterministic() {
        let a = run_tracking(
            &EscraConfig::default(),
            &SysbenchLoad::paper_fig2(),
            5.0,
            SimDuration::from_secs(10),
        );
        let b = run_tracking(
            &EscraConfig::default(),
            &SysbenchLoad::paper_fig2(),
            5.0,
            SimDuration::from_secs(10),
        );
        assert_eq!(a.limit.last(), b.limit.last());
        assert_eq!(a.throttles, b.throttles);
    }
}
