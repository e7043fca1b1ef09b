//! Regenerates the **§VI-A update-period sensitivity** study: HipsterShop
//! throughput under Autopilot at 1 s / 10 s / 30 s / 60 s update periods
//! (the paper reports 422 → 382 → 279 → 108 req/s degradation), plus the
//! same sweep under the Burst workload where the effect is strongest.

use escra_baselines::AutopilotConfig;
use escra_bench::{write_json, Args, SEED};
use escra_harness::{profile_run, run_with_profiles, MicroSimConfig, Policy};
use escra_metrics::{to_json, Table};
use escra_simcore::time::SimDuration;
use escra_workloads::{hipster_shop, WorkloadKind};

pub fn run(_: &Args) {
    let mut dump = Vec::new();
    for (wl_name, wl) in [
        ("fixed", WorkloadKind::paper_fixed()),
        ("burst", WorkloadKind::paper_burst()),
    ] {
        let base = MicroSimConfig::new(hipster_shop(), wl, Policy::static_1_5x(), SEED)
            .with_duration(SimDuration::from_secs(60));
        let profiles = profile_run(&base);
        let mut table = Table::new(vec![
            "update period",
            "tput(req/s)",
            "p99.9(ms)",
            "OOM kills",
        ]);
        for secs in [1u64, 10, 30, 60] {
            let cfg = MicroSimConfig {
                policy: Policy::Autopilot(
                    AutopilotConfig::default().with_update_period(SimDuration::from_secs(secs)),
                ),
                ..base.clone()
            };
            let m = run_with_profiles(&cfg, &profiles).metrics;
            table.row(vec![
                format!("{secs}s"),
                format!("{:.1}", m.throughput()),
                format!("{:.0}", m.latency.p(99.9)),
                format!("{}", m.oom_kills),
            ]);
            dump.push((wl_name, secs, m.throughput(), m.latency.p(99.9)));
        }
        println!("Autopilot update-period sensitivity — HipsterShop, {wl_name} workload");
        println!("{}", table.render());
    }
    println!("(paper, HipsterShop: 422 / 382 / 279 / 108 req/s at 1 / 10 / 30 / 60 s;");
    println!(" coarser periods react later to shifts and suffer more OOM restarts)");
    let path = write_json("autopilot_period_sensitivity", &to_json(&dump));
    println!("rows written to {}", path.display());
}
