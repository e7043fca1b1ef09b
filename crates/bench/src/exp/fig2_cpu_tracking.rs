//! Regenerates **Fig. 2**: Escra's CPU limit tracking a dynamic
//! sysbench-style workload saturating 1–4 CPUs over ~40 s.

use escra_bench::{write_json, Args};
use escra_core::EscraConfig;
use escra_harness::tracking::run_tracking;
use escra_metrics::{to_json, Table};
use escra_simcore::time::SimDuration;
use escra_workloads::SysbenchLoad;

pub fn run(_: &Args) {
    let result = run_tracking(
        &EscraConfig::default(),
        &SysbenchLoad::paper_fig2(),
        5.0,
        SimDuration::from_secs(40),
    );
    let mut table = Table::new(vec!["time(ms)", "limit(#CPUs)", "usage(#CPUs)"]);
    // Print one row per 500 ms, like reading points off the figure.
    for (i, ((t, limit), (_, usage))) in result.limit.iter().zip(result.usage.iter()).enumerate() {
        if i % 5 == 0 {
            table.row(vec![
                format!("{}", t.as_millis()),
                format!("{limit:.2}"),
                format!("{usage:.2}"),
            ]);
        }
    }
    println!("Fig. 2 — Escra CPU tracking under a dynamic (sysbench) workload");
    println!("(paper: limit hugs usage through the 1->3->2->4->1->2 core phases)\n");
    println!("{}", table.render());
    println!(
        "mean absolute slack: {:.3} cores; throttled periods: {} / {}",
        result.mean_slack_cores(),
        result.throttles,
        result.limit.len()
    );
    let series: Vec<(u64, f64, f64)> = result
        .limit
        .iter()
        .zip(result.usage.iter())
        .map(|((t, l), (_, u))| (t.as_millis(), l, u))
        .collect();
    let path = write_json("fig2_cpu_tracking", &to_json(&series));
    println!("series written to {}", path.display());
}
