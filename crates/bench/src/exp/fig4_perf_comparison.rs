//! Regenerates **Fig. 4**: % decrease in 99.9 % latency and % increase
//! in throughput of Escra vs every baseline (Static-1.5×, Autopilot,
//! tiny autoscaler, ARC-V), for all four applications × four
//! workloads.

use escra_bench::{matrix_cells, run_cells_args, write_json, Args};
use escra_metrics::{to_json, Table};
use serde::Serialize;

#[derive(Serialize)]
struct Bar {
    app: String,
    workload: String,
    vs: String,
    latency_decrease_pct: f64,
    throughput_increase_pct: f64,
}

pub fn run(args: &Args) {
    let cells = run_cells_args(matrix_cells(), args);
    let mut table = Table::new(vec![
        "app",
        "workload",
        "dLat vs Static%",
        "dTput vs Static%",
        "dLat vs Autopilot%",
        "dTput vs Autopilot%",
        "dLat vs Tiny%",
        "dTput vs Tiny%",
        "dLat vs ARC-V%",
        "dTput vs ARC-V%",
    ]);
    let mut bars = Vec::new();
    for c in &cells {
        let lat = |m: &escra_metrics::RunMetrics| m.latency.p(99.9);
        let deltas = |m: &escra_metrics::RunMetrics| {
            (
                (lat(m) - lat(&c.escra)) / lat(m) * 100.0,
                (c.escra.throughput() - m.throughput()) / m.throughput() * 100.0,
            )
        };
        let baselines = [
            ("static-1.5x", deltas(&c.static_1_5)),
            ("autopilot", deltas(&c.autopilot)),
            ("tiny", deltas(&c.tiny)),
            ("arc-v", deltas(&c.arc_v)),
        ];
        let mut row = vec![c.app.to_string(), c.workload.to_string()];
        for &(_, (dl, dt)) in &baselines {
            row.push(format!("{dl:.1}"));
            row.push(format!("{dt:.1}"));
        }
        table.row(row);
        for (vs, (dl, dt)) in baselines {
            bars.push(Bar {
                app: c.app.into(),
                workload: c.workload.into(),
                vs: vs.into(),
                latency_decrease_pct: dl,
                throughput_increase_pct: dt,
            });
        }
    }
    println!("Fig. 4 — change in 99.9% latency and throughput, Escra vs baselines");
    println!("(positive = Escra better; paper reports up to 96.9% latency decrease and");
    println!(" 134%/324% TrainTicket burst/exp throughput increases, with a few small");
    println!(" negative cells such as TrainTicket-fixed at -5.5% tput)\n");
    println!("{}", table.render());
    let path = write_json("fig4_perf_comparison", &to_json(&bars));
    println!("bars written to {}", path.display());
}
