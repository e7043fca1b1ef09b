//! Golden `trace_sim` regression test: pins everything observable about
//! a trace-driven run — `metrics`, `serverless`, container/throttled
//! periods, peak pods, pods spawned, control bytes — for two fixed seeds
//! × {columnar, row-batch} telemetry × {aligned, jittered} `ReportPlan`,
//! plus the static and baseline-scaler modes, as a committed fixture.
//!
//! The fixture was generated *before* `Cluster` moved to an id-indexed
//! slab and `trace_sim::round` to its one-resolve-per-phase form, so a
//! green run proves the driver rewrite is a speed-up, not a behaviour
//! change. `{:?}` on an `f64` prints the shortest round-trip form, so
//! equal digests mean bit-equal numbers.
//!
//! Regenerate (only when an intentional simulator change invalidates the
//! numbers) with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_trace_sim
//! ```

use escra::baselines::TinyAutoscalerConfig;
use escra::core::EscraConfig;
use escra::harness::{
    run_trace_sim, BaselineScalerKind, ReportPlan, TraceSimConfig, TraceSimOutput,
};
use escra::metrics::trace_fingerprint;
use escra::simcore::time::SimDuration;
use escra::workloads::synthetic_trace::{mega_mix, synthetic_trace};
use std::path::Path;

/// `escra_bench::SEED` (the committed-artifact master seed) and a second
/// unrelated one.
const SEEDS: [u64; 2] = [20220701, 7];

fn cfg(escra: bool, seed: u64) -> TraceSimConfig {
    let mut cfg = TraceSimConfig::paper_like(escra.then(EscraConfig::default), seed, 4);
    cfg.node_cores = 16;
    // Short enough that pods tear down and re-spawn inside the 3-minute
    // trace: deploy, terminate and idle fast-forward are all on the path.
    cfg.idle_timeout = SimDuration::from_secs(20);
    cfg
}

/// One pinned line per run: the readable scalars, and fingerprints of
/// the two large recorders' full `Debug` renderings.
fn digest_line(label: &str, out: &TraceSimOutput) -> String {
    format!(
        "{label} cp={} throttled={} peak_pods={} spawned={} control_bytes={} invocations={} \
         oom_kills={} metrics={:016x} serverless={:016x}\n",
        out.container_periods,
        out.throttled_periods,
        out.peak_pods,
        out.pods_spawned,
        out.control_bytes,
        out.serverless.invocations,
        out.metrics.oom_kills,
        trace_fingerprint(&format!("{:?}", out.metrics)),
        trace_fingerprint(&format!("{:?}", out.serverless)),
    )
}

fn render() -> String {
    let mut out = String::new();
    for seed in SEEDS {
        let w = synthetic_trace(&mega_mix(60, 3, seed));
        for columnar in [true, false] {
            for jittered in [false, true] {
                let mut c = cfg(true, seed);
                c.columnar = columnar;
                if jittered {
                    c.report_plan = ReportPlan {
                        period_multipliers: vec![1, 2, 5],
                        jitter_frac: 0.9,
                    };
                }
                let label = format!(
                    "seed={seed} form={} plan={}",
                    if columnar { "columnar" } else { "rows" },
                    if jittered { "jittered" } else { "aligned" },
                );
                out.push_str(&digest_line(&label, &run_trace_sim(&w, &c)));
            }
        }
    }
    // The non-Escra modes share the round (vanilla OOM kills, the
    // per-second observe → recommend → apply loop).
    let seed = SEEDS[0];
    let w = synthetic_trace(&mega_mix(60, 3, seed));
    let stat = cfg(false, seed);
    out.push_str(&digest_line(
        &format!("seed={seed} policy=static"),
        &run_trace_sim(&w, &stat),
    ));
    let mut tiny = cfg(false, seed);
    tiny.baseline = Some(BaselineScalerKind::Tiny(TinyAutoscalerConfig::default()));
    out.push_str(&digest_line(
        &format!("seed={seed} policy=tiny"),
        &run_trace_sim(&w, &tiny),
    ));
    out
}

#[test]
fn trace_sim_digests_match_committed_fixture() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_sim_digests.txt");
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
        assert_eq!(want, got, "trace_sim golden diverged at line {}", i + 1);
    }
    assert_eq!(
        committed.lines().count(),
        rendered.lines().count(),
        "trace_sim golden line count changed"
    );
}
