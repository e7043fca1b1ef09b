//! Regenerates the **§VI-B provisioning study**: MediaMicroservice under
//! static limits at 0.75× (underutilized), 1.0× (best estimate) and
//! 1.5× (safe buffer) of the profiled peak — the trade-off curve that
//! motivates using 1.5× as the static comparison point — plus Escra,
//! which escapes the trade-off.

use escra_bench::{write_json, Args, SEED};
use escra_harness::{profile_run, run_with_profiles, MicroSimConfig, Policy};
use escra_metrics::{to_json, Table};
use escra_simcore::time::SimDuration;
use escra_workloads::{media_microservice, WorkloadKind};

pub fn run(_: &Args) {
    let base = MicroSimConfig::new(
        media_microservice(),
        WorkloadKind::paper_fixed(),
        Policy::static_1_5x(),
        SEED,
    )
    .with_duration(SimDuration::from_secs(60));
    let profiles = profile_run(&base);

    let mut table = Table::new(vec![
        "allocation",
        "tput(req/s)",
        "p99.9(ms)",
        "cpu slack p50",
        "mem slack p50(MiB)",
        "OOMs",
    ]);
    let mut dump = Vec::new();
    let allocations = [
        ("static-0.75x", Policy::Static { factor: 0.75 }),
        ("static-1x", Policy::Static { factor: 1.0 }),
        ("static-1.5x", Policy::Static { factor: 1.5 }),
        ("escra", Policy::escra_default()),
    ];
    for (name, policy) in allocations {
        let cfg = MicroSimConfig {
            policy,
            ..base.clone()
        };
        let m = run_with_profiles(&cfg, &profiles).metrics;
        table.row(vec![
            name.into(),
            format!("{:.1}", m.throughput()),
            format!("{:.0}", m.latency.p(99.9)),
            format!("{:.2}", m.slack.cpu_p(50.0)),
            format!("{:.0}", m.slack.mem_p(50.0)),
            format!("{}", m.oom_kills),
        ]);
        dump.push((name, m.throughput(), m.latency.p(99.9)));
    }

    println!("Static provisioning study — MediaMicroservice, fixed 400 req/s");
    println!("(paper 6-B: performance increases and slack worsens from 0.75x to 1.5x;");
    println!(" 1.5x is the safe buffer used for the comparisons)\n");
    println!("{}", table.render());
    let path = write_json("static_provisioning_study", &to_json(&dump));
    println!("rows written to {}", path.display());
}
