//! `escra-bench`: every experiment of the evaluation behind one entry
//! point.
//!
//! ```text
//! cargo run -p escra-bench --release -- <experiment> [flags]
//! ```
//!
//! With no argument, or an unknown experiment name, it prints the
//! experiment index and exits non-zero. Each experiment writes its
//! artifacts under `target/escra-results/`.

#![forbid(unsafe_code)]

use escra_bench::{usage, Args, FLAGS};

/// One row of the experiment index.
struct Experiment {
    /// The subcommand, also the stem of the experiment's artifacts.
    name: &'static str,
    /// One line on what the experiment regenerates.
    about: &'static str,
    /// The flags it accepts.
    flags: &'static [&'static str],
    /// Runs it.
    run: fn(&Args),
}

const NONE: &[&str] = &[];
const SMOKE: &[&str] = &["--smoke"];
const SWEEP: &[&str] = &["--smoke", "--serial", "--threads"];
const GATED: &[&str] = &["--smoke", "--check", "--record"];
const GATED_SHARDS: &[&str] = &["--smoke", "--threads", "--check", "--record"];

/// One module per experiment (`src/exp/<name>.rs`), each exposing
/// `run(&Args)`.
mod exp {
    pub mod ablation_design_choices;
    pub mod autopilot_period_sensitivity;
    pub mod baseline_serverless;
    pub mod fig2_cpu_tracking;
    pub mod fig4_perf_comparison;
    pub mod fig5_cpu_slack_cdf;
    pub mod fig6_mem_slack_cdf;
    pub mod fig7_serverless_latency;
    pub mod fig8_imageprocess_limits;
    pub mod fig9_gridsearch_limits;
    pub mod mc_explore;
    pub mod overhead_controller;
    pub mod overhead_network;
    pub mod report_period_sweep;
    pub mod robustness_sweep;
    pub mod sim_scale;
    pub mod static_provisioning_study;
    pub mod table1_summary;
    pub mod trace_dump;
    pub mod trace_mega;
    pub mod vpa_comparison;
}

/// Builds `EXPERIMENTS`, the index in paper order, from one
/// `name, flags, about;` row per experiment.
macro_rules! experiments {
    ($($name:ident, $flags:expr, $about:literal;)*) => {
        const EXPERIMENTS: &[Experiment] = &[$(Experiment {
            name: stringify!($name),
            about: $about,
            flags: $flags,
            run: exp::$name::run,
        }),*];
    };
}

experiments! {
    fig2_cpu_tracking, NONE, "Fig. 2: CPU limit tracking a sysbench load";
    fig4_perf_comparison, SWEEP, "Fig. 4: tail latency and throughput vs baselines";
    fig5_cpu_slack_cdf, SWEEP, "Fig. 5: CPU slack CDFs";
    fig6_mem_slack_cdf, SWEEP, "Fig. 6: memory slack CDFs";
    table1_summary, SWEEP, "Table I: average gains over the 4x4 matrix";
    fig7_serverless_latency, NONE, "Fig. 7: serverless latency CDFs";
    fig8_imageprocess_limits, NONE, "Fig. 8: ImageProcess limits over time";
    fig9_gridsearch_limits, NONE, "Fig. 9: GridSearch limits over time";
    autopilot_period_sensitivity, NONE, "§VI-A: Autopilot update-period sensitivity";
    static_provisioning_study, NONE, "§VI-B: static provisioning at 0.75x / 1x / 1.5x";
    robustness_sweep, NONE, "§VI-E: OOM kills under loss and partition";
    report_period_sweep, SWEEP, "§VI-I: telemetry report period 50-200 ms";
    overhead_network, NONE, "§VI-I: control-plane bandwidth";
    overhead_controller, GATED_SHARDS, "§VI-I: Controller ingest capacity (BENCH_controller.json)";
    ablation_design_choices, NONE, "DESIGN §4: growth cap, γ, window, δ, reclaim interval";
    vpa_comparison, NONE, "§II extension: VPA-style scaler vs Escra";
    baseline_serverless, SMOKE, "extension: tiny / ARC-V / Escra with cost columns";
    sim_scale, GATED, "10k-node event-heap scale run (BENCH_sim.json)";
    trace_mega, &FLAGS, "10k-20k-app trace-driven scale run (BENCH_trace.json)";
    trace_dump, NONE, "decision trace + Prometheus exposition";
    mc_explore, SMOKE, "exhaustive model check of the control protocol";
}

/// The index printed when no known experiment is named.
fn index() -> String {
    let mut out = String::from("usage: escra-bench <experiment> [flags]\n\nexperiments:\n");
    for e in EXPERIMENTS {
        out += &format!("  {:<30}{}\n", e.name, e.about);
        out += &format!("  {:<30}  flags: {}\n", "", usage(e.flags));
    }
    out
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    let Some(exp) = EXPERIMENTS.iter().find(|e| e.name == name) else {
        if !name.is_empty() {
            eprintln!("escra-bench: unknown experiment {name:?}\n");
        }
        eprint!("{}", index());
        std::process::exit(2);
    };
    match Args::parse(exp.flags, argv) {
        Ok(args) => (exp.run)(&args),
        Err(e) => {
            eprintln!("escra-bench {name}: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_names_are_unique_and_flags_known() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|o| o.name != e.name),
                "{} is listed twice",
                e.name
            );
            for f in e.flags {
                assert!(FLAGS.contains(f), "{}: {f}", e.name);
            }
        }
        assert_eq!(EXPERIMENTS.len(), 21);
    }

    #[test]
    fn committed_baselines_carry_every_gated_key() {
        for baseline in [
            exp::overhead_controller::BASELINE,
            exp::sim_scale::BASELINE,
            exp::trace_mega::BASELINE,
        ] {
            if let Err(e) = baseline.load() {
                panic!("{e}");
            }
        }
    }
}
