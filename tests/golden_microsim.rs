//! Golden `microsim` regression test: pins the *whole* `MicroSimOutput`
//! — `metrics`, `network`, `controller_stats`, `fault_stats` and the
//! engine counters in `sim` — for two apps × two seeds under Escra, each
//! faultless on the aligned schedule and again under a jittered
//! `ReportPlan` with a loss + duplication `FaultPlan`, plus one cell per
//! profile-seeded policy (static, Autopilot, VPA, tiny autoscaler,
//! ARC-V), as a committed fixture. The flush-order cells pin the two
//! cases where the order of telemetry flushes within one instant is
//! observable: a heterogeneous *aligned* plan on six nodes (reporters
//! with different periods fall due together) and the benchmark's
//! `paper_matrix` fault plan, whose delay spikes land messages on flush
//! instants. The overload cells run a single 4-core node far below the
//! workload's demand for 25 s with a 2 s `request_timeout` — under Escra
//! with the matrix fault plan, static 1.5×, Autopilot and VPA — so
//! `Timeout` events fire and queues grow hundreds of jobs deep; VPA, the
//! one policy that restarts containers on update, also fails whole deep
//! queues. Every other cell runs 8 s against a 10 s timeout and schedules
//! no `Timeout` at all. Two last cells pin the request path's arithmetic
//! at its edges: Autopilot on HipsterShop through a whole burst (25 s),
//! and a ladder app whose every latency sample is an exact power of two
//! of milliseconds, the lower edge of a latency-histogram binade.
//!
//! The fixture was generated *before* the driver lost its second engine
//! and its four copy-pasted scaler arms, so a green run proves that
//! refactor changed no simulated number. `{:?}` on an `f64` prints the
//! shortest round-trip form, so equal digests mean bit-equal numbers.
//!
//! Regenerate (only when an intentional simulator change invalidates the
//! numbers) with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_microsim
//! ```

use escra::baselines::VpaConfig;
use escra::harness::{run, MicroSimConfig, MicroSimOutput, Policy, ReportPlan};
use escra::metrics::trace_fingerprint;
use escra::net::FaultPlan;
use escra::simcore::time::SimDuration;
use escra::workloads::{
    hipster_shop, teastore, MicroserviceApp, RequestClass, ServiceTier, WorkloadKind,
};
use std::path::Path;

/// `escra_bench::SEED` (the committed-artifact master seed) and a second
/// unrelated one.
const SEEDS: [u64; 2] = [20220701, 7];
/// Matches `escra_bench::SMOKE_RUN_SECS` (the CI smoke duration).
const RUN_SECS: u64 = 8;

fn cells() -> Vec<(&'static str, MicroserviceApp, WorkloadKind)> {
    vec![
        ("Teastore/fixed", teastore(), WorkloadKind::paper_fixed()),
        (
            "HipsterShop/burst",
            hipster_shop(),
            WorkloadKind::paper_burst(),
        ),
    ]
}

fn cfg(app: &MicroserviceApp, wl: &WorkloadKind, policy: Policy, seed: u64) -> MicroSimConfig {
    MicroSimConfig::new(app.clone(), wl.clone(), policy, seed)
        .with_duration(SimDuration::from_secs(RUN_SECS))
}

/// One pinned line per run: the readable scalars, and a fingerprint of
/// each output field's full `Debug` rendering.
fn digest_line(label: &str, out: &MicroSimOutput) -> String {
    format!(
        "{label} policy={} succ={} fail={} oom={} bytes={} sim={:?} metrics={:016x} \
         network={:016x} controller={:016x} faults={:016x}\n",
        out.metrics.policy,
        out.metrics.latency.successes(),
        out.metrics.latency.failures(),
        out.metrics.oom_kills,
        out.network.as_ref().map_or(0, |n| n.total_bytes()),
        out.sim,
        trace_fingerprint(&format!("{:?}", out.metrics)),
        trace_fingerprint(&format!("{:?}", out.network)),
        trace_fingerprint(&format!("{:?}", out.controller_stats)),
        trace_fingerprint(&format!("{:?}", out.fault_stats)),
    )
}

fn render() -> String {
    let mut out = String::new();
    for (cell, app, wl) in cells() {
        for seed in SEEDS {
            let plain = cfg(&app, &wl, Policy::escra_default(), seed);
            out.push_str(&digest_line(
                &format!("cell={cell} seed={seed} plan=none faults=none"),
                &run(&plain),
            ));
            let faulty = plain
                .with_report_plan(ReportPlan {
                    period_multipliers: vec![1, 2, 3],
                    jitter_frac: 0.5,
                })
                .with_faults(FaultPlan::none().with_loss(0.05).with_duplicates(0.05));
            out.push_str(&digest_line(
                &format!("cell={cell} seed={seed} plan=jittered faults=loss+dup"),
                &run(&faulty),
            ));
        }
    }
    // Flush-order cells (generated before report cohorts existed).
    let (cell, app, wl) = cells().swap_remove(0);
    let hetero = |jitter_frac: f64| ReportPlan {
        period_multipliers: vec![1, 2, 3],
        jitter_frac,
    };
    // `benchmark/src/inputs.rs::matrix_faults`.
    let matrix_faults = || {
        FaultPlan::none()
            .with_loss(0.05)
            .with_duplicates(0.02)
            .with_delay_spikes(0.02, SimDuration::from_millis(150))
    };
    for seed in SEEDS {
        let base = cfg(&app, &wl, Policy::escra_default(), seed);
        let mut six_nodes = base.clone().with_report_plan(hetero(0.0));
        six_nodes.worker_nodes = 6;
        for (label, cfg) in [
            ("plan=hetero-aligned nodes=6 faults=none", six_nodes.clone()),
            (
                "plan=hetero-aligned nodes=6 faults=matrix",
                six_nodes.with_faults(matrix_faults()),
            ),
            (
                "plan=none faults=matrix",
                base.clone().with_faults(matrix_faults()),
            ),
            (
                "plan=jittered faults=matrix",
                base.with_report_plan(hetero(0.5))
                    .with_faults(matrix_faults()),
            ),
        ] {
            out.push_str(&digest_line(
                &format!("cell={cell} seed={seed} {label}"),
                &run(&cfg),
            ));
        }
    }
    // One cell per profile-seeded policy: the arms `Sim::new` builds
    // through `PeriodicScaler::track`, and the static one beside them.
    let (cell, app, wl) = cells().swap_remove(0);
    for policy in [
        Policy::static_1_5x(),
        Policy::autopilot_default(),
        Policy::Vpa(VpaConfig::default()),
        Policy::tiny_default(),
        Policy::arc_v_default(),
    ] {
        let seed = SEEDS[0];
        out.push_str(&digest_line(
            &format!("cell={cell} seed={seed}"),
            &run(&cfg(&app, &wl, policy, seed)),
        ));
    }
    // Overload cells: the shape of `microsim::tests::overloaded_cfg`.
    for policy in [
        Policy::escra_default(),
        Policy::static_1_5x(),
        Policy::autopilot_default(),
        Policy::Vpa(VpaConfig::default()),
    ] {
        // Only Escra has a control plane for the fault plan to act on.
        let (label, faults) = match policy {
            Policy::Escra(_) => ("faults=matrix", matrix_faults()),
            _ => ("faults=none", FaultPlan::none()),
        };
        let mut cfg =
            MicroSimConfig::new(teastore(), WorkloadKind::Fixed { rps: 400.0 }, policy, 11)
                .with_duration(SimDuration::from_secs(25))
                .with_faults(faults);
        cfg.worker_nodes = 1;
        cfg.node_cores = 4;
        cfg.request_timeout = SimDuration::from_secs(2);
        let o = run(&cfg);
        let name = cfg.policy.name();
        assert!(o.sim.timeout_failures > 0, "{name}: cell not overloaded");
        if matches!(cfg.policy, Policy::Vpa(_)) {
            assert!(
                o.metrics.latency.failures() > o.sim.timeout_failures,
                "vpa: no restart failed a queue"
            );
        }
        out.push_str(&digest_line(
            &format!("cell=Teastore/overload seed=11 {label}"),
            &o,
        ));
    }
    // Autopilot through a whole burst: 25 s measured from t = 10 s takes
    // in the burst of [20 s, 30 s), so its decayed histograms hold weight
    // at both the calm and the burst usage.
    let (cell, app, wl) = cells().swap_remove(1);
    let seed = SEEDS[0];
    out.push_str(&digest_line(
        &format!("cell={cell} seed={seed} secs=25"),
        &run(&cfg(&app, &wl, Policy::autopilot_default(), seed)
            .with_duration(SimDuration::from_secs(25))),
    ));
    // Latency samples on exact powers of two.
    let cfg = MicroSimConfig::new(
        pow2_ladder(),
        WorkloadKind::Fixed { rps: 40.0 },
        Policy::escra_default(),
        seed,
    )
    .with_duration(SimDuration::from_secs(RUN_SECS));
    let o = run(&cfg);
    let cdf = o.metrics.latency.cdf();
    assert_eq!(cdf.len(), 5, "one bucket per rung: {cdf:?}");
    for (i, &(ms, _)) in cdf.iter().enumerate() {
        // The midpoint of sub-bucket 0 of the binade [2^(i-1), 2^i) ms.
        let want = 0.5 * (1u64 << i) as f64 * (1.0 + 0.5 / 64.0);
        assert_eq!(ms, want, "rung {i}: {cdf:?}");
    }
    out.push_str(&digest_line(
        &format!("cell=Pow2Ladder/fixed40 seed={seed}"),
        &o,
    ));
    out
}

/// A five-rung ladder of one-replica tiers with constant stage costs of
/// 0.5, 0.5, 1, 2 and 4 core-ms on a one-core thread pool, and one class
/// stopping at each rung. Requests arrive 25 ms apart and no background
/// work runs, so no request waits: it takes exactly 0.5, 1, 2, 4 or 8 ms,
/// a latency sample on the lower edge of a binade of the histogram.
fn pow2_ladder() -> MicroserviceApp {
    let costs_ms = [0.5, 0.5, 1.0, 2.0, 4.0];
    let tiers = costs_ms
        .iter()
        .enumerate()
        .map(|(i, &cpu_per_req_ms)| ServiceTier {
            name: format!("rung{i}"),
            replicas: 1,
            cpu_per_req_ms,
            cpu_cv: 0.0,
            mem_base_mib: 64,
            mem_per_inflight_kib: 256,
            mem_cache_mib: 32,
            parallelism: 1.0,
            startup_cpu_cores: 0.0,
            bg_work_ms: 0.0,
            bg_interval_s: 0.0,
        })
        .collect();
    let classes = (0..costs_ms.len())
        .map(|k| RequestClass {
            name: format!("to-rung{k}"),
            weight: 1.0,
            path: (0..=k).collect(),
        })
        .collect();
    let app = MicroserviceApp {
        name: "pow2-ladder".into(),
        tiers,
        classes,
        global_cpu_cores: 4.0,
        global_mem_mib: 1024,
    };
    app.validate();
    app
}

#[test]
fn microsim_digests_match_committed_fixture() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/microsim_digests.txt");
    let rendered = render();
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(fixture.parent().expect("fixture dir")).expect("mkdir");
        std::fs::write(&fixture, &rendered).expect("write fixture");
        eprintln!("regenerated {}", fixture.display());
        return;
    }
    let committed = std::fs::read_to_string(&fixture).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with GOLDEN_REGEN=1",
            fixture.display()
        )
    });
    for (i, (want, got)) in committed.lines().zip(rendered.lines()).enumerate() {
        assert_eq!(want, got, "microsim golden diverged at line {}", i + 1);
    }
    assert_eq!(
        committed.lines().count(),
        rendered.lines().count(),
        "microsim golden line count changed"
    );
}
