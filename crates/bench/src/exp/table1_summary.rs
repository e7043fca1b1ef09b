//! Regenerates **Table I**: average performance increase and average
//! slack reduction, every baseline (Static-1.5×, Autopilot, tiny
//! autoscaler, ARC-V) vs Escra, over the 4 apps × 4 workloads matrix.
//! Every per-cell row also carries the cost-efficiency columns
//! (normalized $ and $/1k requests under the default cost model).
//! Also prints the §VI-E OOM counts (Escra must be zero; baselines may
//! OOM).

use escra_bench::{cost_columns, matrix_cells, run_cells_args, write_json, Args};
use escra_metrics::{to_json, Comparison, Table};

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

pub fn run(args: &Args) {
    let cells = run_cells_args(matrix_cells(), args);

    let mut per_cell = Table::new(vec![
        "app",
        "workload",
        "policy",
        "tput(req/s)",
        "p99.9(ms)",
        "cpu p50 slack",
        "mem p50 slack(MiB)",
        "OOMs",
        "cost($)",
        "$/1k req",
    ]);
    // Per cell: Static, Autopilot, tiny and ARC-V, each vs Escra.
    let mut cmps: Vec<[Comparison; 4]> = Vec::new();
    let mut escra_ooms = 0;
    let mut autopilot_ooms_max = 0;
    for c in &cells {
        for m in c.runs() {
            let (cost, per_kilo) = cost_columns(m);
            per_cell.row(vec![
                c.app.into(),
                c.workload.into(),
                m.policy.clone(),
                format!("{:.1}", m.throughput()),
                format!("{:.0}", m.latency.p(99.9)),
                format!("{:.2}", m.slack.cpu_p(50.0)),
                format!("{:.0}", m.slack.mem_p(50.0)),
                format!("{}", m.oom_kills),
                cost,
                per_kilo,
            ]);
        }
        let baselines = [&c.static_1_5, &c.autopilot, &c.tiny, &c.arc_v];
        cmps.push(baselines.map(|b| Comparison::between(b, &c.escra)));
        escra_ooms += c.escra.oom_kills;
        autopilot_ooms_max = autopilot_ooms_max.max(c.autopilot.oom_kills);
    }
    println!("Per-cell results ({} cells x 5 policies):\n", cells.len());
    println!("{}", per_cell.render());

    let fields: [fn(&Comparison) -> f64; 6] = [
        |c| c.latency_decrease_pct,
        |c| c.throughput_increase_pct,
        |c| c.cpu_slack_p50_reduction_pct,
        |c| c.cpu_slack_p99_reduction_pct,
        |c| c.mem_slack_p50_reduction_pct,
        |c| c.mem_slack_p99_reduction_pct,
    ];
    let summarize = |name: &str, baseline: usize| -> Vec<String> {
        let mut row = vec![name.to_string()];
        for field in fields {
            let xs: Vec<f64> = cmps.iter().map(|c| field(&c[baseline])).collect();
            row.push(format!("{:.1}%", mean(&xs)));
        }
        row
    };
    let mut table1 = Table::new(vec![
        "comparison",
        "avg dLat",
        "avg dTput",
        "d50% cpu slack",
        "d99% cpu slack",
        "d50% mem slack",
        "d99% mem slack",
    ]);
    for (i, name) in ["Static", "Autopilot", "Tiny", "ARC-V"].iter().enumerate() {
        table1.row(summarize(&format!("{name} vs. Escra"), i));
    }
    println!("TABLE I (paper: Static row = 38.0/25.4/81.3/74.2/55.0/95.9; Autopilot row = 36.1/54.5/78.3/78.6/26.7/68.9):\n");
    println!("{}", table1.render());

    println!("OOM counts (paper 6-E: Escra 0 in all 32 experiments; Autopilot up to 8 in one):");
    println!("  escra total OOMs: {escra_ooms}");
    println!("  autopilot max OOMs in one experiment: {autopilot_ooms_max}");

    let path = write_json("table1", &to_json(&cmps));
    println!("\nraw comparisons written to {}", path.display());
}
