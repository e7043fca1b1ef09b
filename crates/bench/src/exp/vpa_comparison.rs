//! Extension experiment: the paper's §II *discusses* VPA's limitations
//! (restart-per-rescale, at most one rescale per minute) but does not
//! evaluate it. This binary runs the VPA-style scaler through the same
//! harness so the §II claims can be observed: restarts kill in-flight
//! requests, and the once-per-minute rescale cannot follow bursts.

use escra_baselines::VpaConfig;
use escra_bench::{write_json, Args, SEED};
use escra_harness::{profile_run, run_with_profiles, MicroSimConfig, Policy};
use escra_metrics::{to_json, Table};
use escra_simcore::time::SimDuration;
use escra_workloads::{teastore, WorkloadKind};

pub fn run(_: &Args) {
    let mut table = Table::new(vec![
        "workload",
        "policy",
        "tput(req/s)",
        "p99.9(ms)",
        "failures",
        "cpu slack p50",
    ]);
    let mut dump = Vec::new();
    for (wl_name, wl) in [
        ("fixed", WorkloadKind::paper_fixed()),
        ("burst", WorkloadKind::paper_burst()),
    ] {
        let base = MicroSimConfig::new(teastore(), wl, Policy::static_1_5x(), SEED)
            .with_duration(SimDuration::from_secs(60));
        let profiles = profile_run(&base);
        for policy in [Policy::Vpa(VpaConfig::default()), Policy::escra_default()] {
            let cfg = MicroSimConfig {
                policy,
                ..base.clone()
            };
            let m = run_with_profiles(&cfg, &profiles).metrics;
            table.row(vec![
                wl_name.into(),
                m.policy.clone(),
                format!("{:.1}", m.throughput()),
                format!("{:.0}", m.latency.p(99.9)),
                format!("{}", m.latency.failures()),
                format!("{:.2}", m.slack.cpu_p(50.0)),
            ]);
            dump.push((
                wl_name,
                m.policy.clone(),
                m.throughput(),
                m.latency.p(99.9),
                m.latency.failures(),
            ));
        }
    }
    println!("VPA-style autoscaler vs Escra — Teastore (extension of paper §II)");
    println!("(VPA reschedules at most once per minute and every rescale restarts the");
    println!(" container, failing its in-flight requests — the two limitations the");
    println!(" paper cites for why threshold autoscalers cannot be fine-grained)\n");
    println!("{}", table.render());
    let path = write_json("vpa_comparison", &to_json(&dump));
    println!("rows written to {}", path.display());
}
