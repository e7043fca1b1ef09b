//! Regenerates the **§VI-I network overhead** analysis: control-plane
//! bandwidth of Escra (UDP telemetry + RPC limit updates) versus the
//! number of managed containers. The paper measures a 12.06 Mbps peak
//! for 32 containers and expects linear scaling with container count.

use escra_bench::{write_json, Args, SEED};
use escra_harness::{MicroSimConfig, Policy};
use escra_metrics::{to_json, Table};
use escra_simcore::time::SimDuration;
use escra_workloads::{hipster_shop, media_microservice, teastore, train_ticket, WorkloadKind};

pub fn run(_: &Args) {
    let mut table = Table::new(vec![
        "app",
        "containers",
        "peak Mbps",
        "mean Mbps",
        "bytes/container/s",
    ]);
    let mut dump = Vec::new();
    for app in [
        teastore(),
        hipster_shop(),
        media_microservice(),
        train_ticket(),
    ] {
        let n = app.container_count();
        let name = app.name.clone();
        let cfg = MicroSimConfig::new(
            app,
            WorkloadKind::paper_fixed(),
            Policy::escra_default(),
            SEED,
        )
        .with_duration(SimDuration::from_secs(60));
        let out = escra_harness::run(&cfg);
        let net = out.network.expect("escra run accounts bytes");
        let secs = 60.0 + 10.0; // measured run + warm-up
        let per_container = net.total_bytes() as f64 / n as f64 / secs;
        table.row(vec![
            name.clone(),
            format!("{n}"),
            format!("{:.3}", net.peak_mbps()),
            format!("{:.3}", net.mean_mbps()),
            format!("{per_container:.0}"),
        ]);
        dump.push((name, n, net.peak_mbps(), net.mean_mbps()));
    }
    println!("Escra control-plane network overhead vs container count");
    println!("{}", table.render());
    println!("(paper: 12.06 Mbps peak at 32 containers on their wire format; telemetry");
    println!(" is batched per node, so Mbps grows with the entry payload rate and the");
    println!(" per-container share of envelope headers drops as containers pack nodes)");
    let path = write_json("overhead_network", &to_json(&dump));
    println!("rows written to {}", path.display());
}
