//! Regenerates **Fig. 7**: serverless latency CDFs.
//!
//! * 7a — ImageProcess per-request latency, OpenWhisk vs
//!   OpenWhisk + Escra (4 iterations × 750 requests);
//! * 7b — GridSearch end-to-end application latency over repeated runs
//!   for OpenWhisk, OpenWhisk + Escra, and OpenWhisk + Escra with 20 %
//!   fewer cores/MiB.

use escra_bench::{write_json, Args};
use escra_core::EscraConfig;
use escra_harness::serverless_sim::{run_serverless, ServerlessConfig};
use escra_metrics::{downsample_cdf, to_json, Table};
use escra_simcore::stats::percentile;
use escra_workloads::serverless::{grid_search_task, image_process};

/// GridSearch repetitions (paper: 50; scaled for bench runtime).
const GRID_RUNS: u64 = 8;

pub fn run(_: &Args) {
    // ---- 7a: ImageProcess request latency CDF ----
    println!("Fig. 7a — ImageProcess request latency (ms)");
    let mut table = Table::new(vec!["config", "mean", "p50", "p80", "p99", "requests"]);
    let mut dump = Vec::new();
    for escra in [false, true] {
        let cfg = ServerlessConfig::image_process(escra.then(EscraConfig::default), 11);
        let out = run_serverless(&cfg, &image_process());
        let m = &out.metrics;
        table.row(vec![
            m.policy.clone(),
            format!("{:.0}", m.latency.mean_ms()),
            format!("{:.0}", m.latency.p(50.0)),
            format!("{:.0}", m.latency.p(80.0)),
            format!("{:.0}", m.latency.p(99.0)),
            format!("{}", m.latency.successes()),
        ]);
        dump.push((m.policy.clone(), downsample_cdf(&m.latency.cdf(), 200)));
    }
    println!("{}", table.render());
    println!("(paper: Escra+OpenWhisk mean 1.99 s vs OpenWhisk 2.12 s; gains up to the");
    println!(" 80th%ile, similar 99th%ile)\n");

    // ---- 7b: GridSearch application latency CDF ----
    println!("Fig. 7b — GridSearch application latency (s), {GRID_RUNS} runs per config");
    let mut table = Table::new(vec!["config", "mean(s)", "p50(s)", "p99(s)"]);
    let mut dump_b = Vec::new();
    for (name, escra, scale) in [
        ("openwhisk", false, 1.0),
        ("escra-openwhisk", true, 1.0),
        ("escra-openwhisk-80pct", true, 0.8),
    ] {
        let mut latencies = Vec::new();
        for seed in 0..GRID_RUNS {
            let mut cfg =
                ServerlessConfig::grid_search(escra.then(EscraConfig::default), 100 + seed);
            cfg.resource_scale = scale;
            let out = run_serverless(&cfg, &grid_search_task());
            latencies.push(out.job_latency.expect("job completes").as_secs_f64());
            eprint!(".");
        }
        eprintln!(" {name}");
        let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
        table.row(vec![
            name.into(),
            format!("{mean:.1}"),
            format!("{:.1}", percentile(&latencies, 50.0)),
            format!("{:.1}", percentile(&latencies, 99.0)),
        ]);
        dump_b.push((name, latencies));
    }
    println!("{}", table.render());
    println!("(paper: ~300 s for OpenWhisk and Escra at equal resources, 303 s (+1%) at");
    println!(" 80% resources; Escra+OpenWhisk has the lower tail)");

    let path = write_json("fig7_serverless_latency", &to_json(&(dump, dump_b)));
    println!("CDFs written to {}", path.display());
}
