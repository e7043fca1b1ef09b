//! The 16-seed band: a distributional gate for changes that move the
//! random sample path (a new sampler, a new draw order) and so move every
//! digest in `tests/golden/` at once.
//!
//! It runs the `golden_matrix` cells (Teastore × fixed, HipsterShop ×
//! burst) under every policy, the `serverless_digests` apps under every
//! mode, and two `trace_sim_digests` cells (Escra and static), each at the
//! 16 fork-derived seeds `scenario_seed(SEED, k)`, k = 0..16. Each named
//! quantity (p99.9, throughput, slack p50/p99, OOM kills, limit means,
//! failures, control bytes, throttled periods, …) is reduced to its
//! median (nearest rank: the 8th smallest of 16) and [min, max] over
//! the seeds.
//!
//! * no flag: print the band;
//! * `--record`: write it to `tests/golden/seed_band.txt`;
//! * `--check`: fail unless every quantity's median lies inside the
//!   committed [min, max]; a quantity on one side only fails too;
//! * `--serial`: re-run the grid serially and fail unless the band is
//!   byte-identical; `--threads N`: sweep workers.
//!
//! The committed band is the reference the next sample-path change is
//! held to, so `--record` is for a change that is meant to move the
//! distribution itself, not for one that moves only the sample path.

use escra_baselines::{TinyAutoscalerConfig, VpaConfig};
use escra_bench::{fail, Args, SEED, SMOKE_RUN_SECS};
use escra_core::EscraConfig;
use escra_harness::serverless_sim::{run_serverless, ServerlessApp, ServerlessConfig};
use escra_harness::sweep::{run_serial, run_sweep, scenario_seed, scenarios, Scenario};
use escra_harness::{
    profile_run, run_trace_sim, run_with_profiles, BaselineScalerKind, MicroSimConfig, Policy,
    TraceSimConfig,
};
use escra_metrics::RunMetrics;
use escra_simcore::stats::percentile;
use escra_simcore::time::SimDuration;
use escra_workloads::serverless::{grid_search_task, image_process};
use escra_workloads::synthetic_trace::{mega_mix, synthetic_trace};
use escra_workloads::{hipster_shop, teastore, WorkloadKind};
use std::fmt::Write as _;

/// Seeds per quantity.
const SEEDS: usize = 16;

/// The committed band, relative to the repository root.
const FIXTURE: &str = "tests/golden/seed_band.txt";

/// The `serverless_digests` modes: `(label, escra, resource_scale, tiny)`.
const MODES: [(&str, bool, f64, bool); 4] = [
    ("vanilla", false, 1.0, false),
    ("escra", true, 1.0, false),
    ("escra-0.8", true, 0.8, false),
    ("tiny", false, 1.0, true),
];

/// One simulation of the band; every job runs at every seed.
#[derive(Debug, Clone, Copy)]
enum Job {
    /// A `golden_matrix` cell (0: Teastore × fixed, 1: HipsterShop ×
    /// burst) under every policy, after one shared profiling run.
    Matrix(usize),
    /// A `serverless_digests` app (GridSearch when `true`) in one of
    /// [`MODES`].
    Serverless { grid: bool, mode: usize },
    /// A `trace_sim_digests` cell, with or without Escra.
    Trace { escra: bool },
}

/// A run's named quantities, in a fixed order.
type Quantities = Vec<(String, f64)>;

/// The quantities every driver's [`RunMetrics`] carries.
fn run_metrics(q: &mut Quantities, prefix: &str, m: &RunMetrics) {
    for (name, v) in [
        ("succ", m.latency.successes() as f64),
        ("fail", m.latency.failures() as f64),
        ("oom", m.oom_kills as f64),
        ("cpu_p50", m.slack.cpu_p(50.0)),
        ("cpu_p99", m.slack.cpu_p(99.0)),
        ("mem_p50", m.slack.mem_p(50.0)),
        ("mem_p99", m.slack.mem_p(99.0)),
        ("cpu_lim_mean", m.cpu_limit_series.mean()),
        ("mem_lim_mean", m.mem_limit_series.mean()),
    ] {
        q.push((format!("{prefix}/{name}"), v));
    }
}

fn run_job(job: Job, seed: u64) -> Quantities {
    let mut q = Quantities::new();
    match job {
        Job::Matrix(cell) => {
            let (name, app, wl) = match cell {
                0 => ("Teastore/fixed", teastore(), WorkloadKind::paper_fixed()),
                _ => (
                    "HipsterShop/burst",
                    hipster_shop(),
                    WorkloadKind::paper_burst(),
                ),
            };
            let base = MicroSimConfig::new(app, wl, Policy::static_1_5x(), seed)
                .with_duration(SimDuration::from_secs(SMOKE_RUN_SECS));
            let profiles = profile_run(&base);
            for policy in [
                Policy::static_1_5x(),
                Policy::autopilot_default(),
                Policy::Vpa(VpaConfig::default()),
                Policy::tiny_default(),
                Policy::arc_v_default(),
                Policy::escra_default(),
            ] {
                let cfg = MicroSimConfig {
                    policy,
                    ..base.clone()
                };
                let out = run_with_profiles(&cfg, &profiles);
                let m = &out.metrics;
                let prefix = format!("matrix/{name}/{}", m.policy);
                run_metrics(&mut q, &prefix, m);
                q.push((format!("{prefix}/tput"), m.throughput()));
                q.push((format!("{prefix}/p999"), m.latency.p(99.9)));
                if let (Some(net), Some(ctl)) = (&out.network, &out.controller_stats) {
                    q.push((format!("{prefix}/ctl_bytes"), net.total_bytes() as f64));
                    q.push((format!("{prefix}/quota_updates"), ctl.quota_updates as f64));
                    q.push((format!("{prefix}/mem_grants"), ctl.mem_grants as f64));
                }
            }
        }
        Job::Serverless { grid, mode } => {
            let (label, escra, scale, tiny) = MODES[mode];
            let ecfg = escra.then(EscraConfig::default);
            let mut cfg = if grid {
                ServerlessConfig::grid_search(ecfg, seed)
            } else {
                ServerlessConfig {
                    app: ServerlessApp::ImageProcess { iterations: 1 },
                    ..ServerlessConfig::image_process(ecfg, seed)
                }
            };
            cfg.resource_scale = scale;
            if tiny {
                cfg.baseline = Some(BaselineScalerKind::Tiny(TinyAutoscalerConfig::default()));
            }
            let (app, profile) = if grid {
                ("GridSearch", grid_search_task())
            } else {
                ("ImageProcess", image_process())
            };
            let out = run_serverless(&cfg, &profile);
            let prefix = format!("serverless/{app}/{label}");
            run_metrics(&mut q, &prefix, &out.metrics);
            match out.job_latency {
                Some(job) => q.push((format!("{prefix}/job_s"), job.as_secs_f64())),
                None => q.push((format!("{prefix}/p999"), out.metrics.latency.p(99.9))),
            }
            q.push((format!("{prefix}/peak_pods"), out.peak_pods as f64));
            if let Some(net) = &out.network {
                q.push((format!("{prefix}/ctl_bytes"), net.total_bytes() as f64));
            }
        }
        Job::Trace { escra } => {
            let w = synthetic_trace(&mega_mix(60, 3, seed));
            let mut cfg = TraceSimConfig::paper_like(escra.then(EscraConfig::default), seed, 4);
            cfg.node_cores = 16;
            cfg.idle_timeout = SimDuration::from_secs(20);
            let out = run_trace_sim(&w, &cfg);
            let prefix = format!("trace/{}", if escra { "escra" } else { "static" });
            run_metrics(&mut q, &prefix, &out.metrics);
            for (name, v) in [
                ("p999", out.metrics.latency.p(99.9)),
                ("cp", out.container_periods as f64),
                ("throttled", out.throttled_periods as f64),
                ("peak_pods", out.peak_pods as f64),
                ("spawned", out.pods_spawned as f64),
            ] {
                q.push((format!("{prefix}/{name}"), v));
            }
            if escra {
                q.push((format!("{prefix}/ctl_bytes"), out.control_bytes as f64));
            }
        }
    }
    q
}

/// Every job at every seed, seed-major within a job.
fn jobs() -> Vec<(Job, u64)> {
    let mut kinds = vec![Job::Matrix(0), Job::Matrix(1)];
    for grid in [false, true] {
        kinds.extend((0..MODES.len()).map(|mode| Job::Serverless { grid, mode }));
    }
    kinds.extend([true, false].map(|escra| Job::Trace { escra }));
    kinds
        .into_iter()
        .flat_map(|job| (0..SEEDS).map(move |k| (job, scenario_seed(SEED, k))))
        .collect()
}

/// One line per quantity: `name median=… min=… max=…`, in job order.
fn render(runs: &[Quantities]) -> String {
    let mut out = String::new();
    for per_seed in runs.chunks(SEEDS) {
        for (i, (name, _)) in per_seed[0].iter().enumerate() {
            let values: Vec<f64> = per_seed
                .iter()
                .map(|q| {
                    assert_eq!(
                        &q[i].0, name,
                        "a job names the same quantities at every seed"
                    );
                    q[i].1
                })
                .collect();
            let (lo, hi) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            let median = percentile(&values, 50.0);
            writeln!(out, "{name} median={median:.6} min={lo:.6} max={hi:.6}").expect("write");
        }
    }
    out
}

/// A rendered band line: `(name, median, min, max)`.
fn parse(line: &str) -> Option<(&str, f64, f64, f64)> {
    let mut it = line.split_whitespace();
    let name = it.next()?;
    let mut field = |key: &str| it.next()?.strip_prefix(key)?.parse::<f64>().ok();
    Some((name, field("median=")?, field("min=")?, field("max=")?))
}

fn fixture_path() -> String {
    format!("{}/../../{FIXTURE}", env!("CARGO_MANIFEST_DIR"))
}

/// Holds `band`'s medians to the committed [min, max]; prints one line
/// per quantity and returns the names that fall outside or are missing.
fn check(band: &str, committed: &str) -> Vec<String> {
    let committed: Vec<_> = committed
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(parse)
        .collect();
    let now: Vec<_> = band.lines().filter_map(parse).collect();
    let mut bad = Vec::new();
    for &(name, was, lo, hi) in &committed {
        let Some(&(_, median, ..)) = now.iter().find(|q| q.0 == name) else {
            println!("{name:<44} MISSING");
            bad.push(name.to_owned());
            continue;
        };
        let inside = (lo..=hi).contains(&median);
        let verdict = if inside { "ok" } else { "OUTSIDE" };
        println!("{name:<44} median {was:.6} -> {median:.6} in [{lo:.6}, {hi:.6}] {verdict}");
        if !inside {
            bad.push(name.to_owned());
        }
    }
    for &(name, ..) in &now {
        if !committed.iter().any(|q| q.0 == name) {
            println!("{name:<44} NOT IN THE COMMITTED BAND");
            bad.push(name.to_owned());
        }
    }
    bad
}

pub fn run(args: &Args) {
    let f = |s: &Scenario<(Job, u64)>| run_job(s.input.0, s.input.1);
    let runs = run_sweep(scenarios(SEED, jobs()), args.workers(), f);
    let band = render(&runs);
    if args.serial && render(&run_serial(scenarios(SEED, jobs()), f)) != band {
        fail("parallel and serial seed bands differ");
    }
    let n = band.lines().count();
    if args.record {
        let header = format!(
            "# {SEEDS}-seed band (seeds scenario_seed({SEED}, 0..{SEEDS})): median, min and max of \
             each named quantity.\n# Written by `escra-bench seed_band --record`; \
             `seed_band --check` holds every median to [min, max].\n"
        );
        std::fs::write(fixture_path(), header + &band).expect("write the seed band");
        println!("{n} quantities recorded to {FIXTURE}");
    } else if args.check {
        let committed = std::fs::read_to_string(fixture_path())
            .unwrap_or_else(|e| fail(&format!("read {FIXTURE}: {e} (run with --record first)")));
        let bad = check(&band, &committed);
        if !bad.is_empty() {
            fail(&format!(
                "{} of {n} quantities fall outside {FIXTURE}: {}",
                bad.len(),
                bad.join(", ")
            ));
        }
        println!("seed band: all {n} medians inside the committed [min, max]");
    } else {
        print!("{band}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_median_outside_the_band_or_a_missing_quantity_fails() {
        let committed = "# header\na median=2.000000 min=1.000000 max=3.000000\n\
                         b median=0.000000 min=0.000000 max=0.000000\n";
        assert!(check(
            "a median=3.0 min=0 max=9\nb median=0 min=0 max=0\n",
            committed
        )
        .is_empty());
        assert_eq!(
            check(
                "a median=3.5 min=0 max=9\nb median=0 min=0 max=0\n",
                committed
            ),
            ["a"]
        );
        assert_eq!(check("a median=2 min=2 max=2\n", committed), ["b"]);
        assert_eq!(
            check(
                "a median=2 min=2 max=2\nb median=0 min=0 max=0\nc median=1 min=1 max=1\n",
                committed
            ),
            ["c"]
        );
    }
}
