//! Regenerates the **§VI-I "Why a 100ms Report Period?"** sweep: 99 %
//! end-to-end latency across telemetry report periods from 50 ms to
//! 200 ms in 50 ms steps (the paper finds 100 ms — the CFS period — is
//! the sweet spot).
//!
//! The four settings run on the deterministic parallel sweep runner;
//! pass `--serial` to re-run serially and assert byte-identical output,
//! `--smoke` for a short run, `--threads N` to size the pool.

use escra_bench::{assert_byte_identical, write_json, Args, SEED};
use escra_core::EscraConfig;
use escra_harness::sweep::{run_serial, run_sweep, scenarios, Scenario};
use escra_harness::{MicroSimConfig, Policy};
use escra_metrics::{to_json, Table};
use escra_simcore::time::SimDuration;
use escra_workloads::{hipster_shop, WorkloadKind};

pub fn run(args: &Args) {
    let duration = args.duration_secs();
    let f = |s: &Scenario<u64>| {
        let ms = s.input;
        let cfg = MicroSimConfig::new(
            hipster_shop(),
            WorkloadKind::paper_burst(),
            Policy::Escra(EscraConfig::default().with_report_period(SimDuration::from_millis(ms))),
            SEED,
        )
        .with_duration(SimDuration::from_secs(duration));
        let m = escra_harness::run(&cfg).metrics;
        (ms, m.latency.p(99.0), m.latency.p(99.9), m.throughput())
    };
    let periods: Vec<u64> = vec![50, 100, 150, 200];
    let dump = run_sweep(scenarios(SEED, periods.clone()), args.workers(), f);
    if args.serial {
        let serial = run_serial(scenarios(SEED, periods), f);
        assert_byte_identical(&dump, &serial);
    }

    let mut table = Table::new(vec!["report period", "p99(ms)", "p99.9(ms)", "tput(req/s)"]);
    for (ms, p99, p999, tput) in &dump {
        table.row(vec![
            format!("{ms}ms"),
            format!("{p99:.0}"),
            format!("{p999:.0}"),
            format!("{tput:.1}"),
        ]);
    }
    println!("Report-period sweep — HipsterShop, Burst workload, Escra");
    println!("{}", table.render());
    println!("(paper: collecting at the end of every 100 ms CFS period gave the lowest");
    println!(" latency across the 50–200 ms sweep)");
    let path = write_json("report_period_sweep", &to_json(&dump));
    println!("rows written to {}", path.display());
}
