//! Ablations over the design choices called out in DESIGN.md §4:
//! the scale-up growth cap, the scale-down margin γ, the sliding-window
//! length n, the reclamation margin δ, and the reclamation interval —
//! all on HipsterShop × Burst, the cell most sensitive to reaction speed.

use escra_bench::{write_json, Args, SEED};
use escra_core::EscraConfig;
use escra_harness::{MicroSimConfig, Policy};
use escra_metrics::{to_json, Table};
use escra_simcore::time::SimDuration;
use escra_workloads::{hipster_shop, WorkloadKind};

fn run_with(cfg: EscraConfig) -> escra_metrics::RunMetrics {
    let sim = MicroSimConfig::new(
        hipster_shop(),
        WorkloadKind::paper_burst(),
        Policy::Escra(cfg),
        SEED,
    )
    .with_duration(SimDuration::from_secs(45));
    escra_harness::run(&sim).metrics
}

fn row(table: &mut Table, name: String, m: &escra_metrics::RunMetrics) {
    table.row(vec![
        name,
        format!("{:.1}", m.throughput()),
        format!("{:.0}", m.latency.p(99.9)),
        format!("{:.2}", m.slack.cpu_p(50.0)),
        format!("{:.0}", m.slack.mem_p(50.0)),
    ]);
}

pub fn run(_: &Args) {
    let headers = vec![
        "variant",
        "tput(req/s)",
        "p99.9(ms)",
        "cpu slack p50",
        "mem slack p50(MiB)",
    ];
    let mut dump: Vec<(String, f64, f64)> = Vec::new();
    let record = |m: &escra_metrics::RunMetrics, name: &str, dump: &mut Vec<(String, f64, f64)>| {
        dump.push((name.to_string(), m.throughput(), m.latency.p(99.9)));
    };

    println!("Ablations — HipsterShop x Burst, Escra variants\n");

    let mut t = Table::new(headers.clone());
    for factor in [1.1, 1.5, 2.0, 4.0] {
        let cfg = EscraConfig {
            max_quota_growth_factor: factor,
            ..EscraConfig::default()
        };
        let m = run_with(cfg);
        record(&m, &format!("growth-cap {factor}x"), &mut dump);
        row(&mut t, format!("growth cap {factor}x/period"), &m);
    }
    println!(
        "scale-up growth cap (reaction speed vs over-grant):\n{}",
        t.render()
    );

    let mut t = Table::new(headers.clone());
    for gamma in [0.1, 0.25, 0.5, 1.0] {
        let m = run_with(EscraConfig::default().with_gamma(gamma));
        record(&m, &format!("gamma {gamma}"), &mut dump);
        row(&mut t, format!("γ = {gamma} cores"), &m);
    }
    println!("scale-down margin γ (cushion vs slack):\n{}", t.render());

    let mut t = Table::new(headers.clone());
    for n in [1usize, 5, 20] {
        let m = run_with(EscraConfig::default().with_window(n));
        record(&m, &format!("window {n}"), &mut dump);
        row(&mut t, format!("window n = {n} periods"), &m);
    }
    println!(
        "sliding-window length (smoothing vs responsiveness):\n{}",
        t.render()
    );

    let mut t = Table::new(headers.clone());
    for mib in [10u64, 50, 200] {
        let m = run_with(EscraConfig::default().with_delta_bytes(mib * 1024 * 1024));
        record(&m, &format!("delta {mib}MiB"), &mut dump);
        row(&mut t, format!("δ = {mib} MiB"), &m);
    }
    println!("reclamation safe margin δ (paper: 50 MiB):\n{}", t.render());

    let mut t = Table::new(headers.clone());
    for secs in [1u64, 5, 30] {
        let cfg = EscraConfig {
            reclaim_interval: SimDuration::from_secs(secs),
            ..EscraConfig::default()
        };
        let m = run_with(cfg);
        record(&m, &format!("reclaim {secs}s"), &mut dump);
        row(&mut t, format!("reclaim every {secs} s"), &m);
    }
    println!("reclamation interval (paper: 5 s):\n{}", t.render());

    let path = write_json("ablation_design_choices", &to_json(&dump));
    println!("rows written to {}", path.display());
}
