//! Golden `serverless_sim` regression test: pins the *whole*
//! `ServerlessOutput` — `metrics`, `job_latency`, `peak_pods`, `network`
//! and the executed / fast-forwarded window counts — for ImageProcess
//! (one iteration) and GridSearch × {vanilla OpenWhisk, Escra, Escra on
//! 80 % of the resources, the tiny-autoscaler baseline} × two seeds, as
//! a committed fixture.
//!
//! The fixture was generated *before* the driver's pod spawn / teardown
//! / memory-charge / sampling code moved into the `PodHost` it now
//! shares with `trace_sim`, so a green run proves that move changed no
//! simulated number. `{:?}` on an `f64` prints the shortest round-trip
//! form, so equal digests mean bit-equal numbers.
//!
//! Regenerate (only when an intentional simulator change invalidates the
//! numbers) with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_serverless
//! ```

use escra::baselines::TinyAutoscalerConfig;
use escra::core::EscraConfig;
use escra::harness::serverless_sim::{
    run_serverless, ServerlessApp, ServerlessConfig, ServerlessOutput,
};
use escra::harness::BaselineScalerKind;
use escra::metrics::trace_fingerprint;
use escra::workloads::serverless::{grid_search_task, image_process};
use std::path::Path;

/// `escra_bench::SEED` (the committed-artifact master seed) and a second
/// unrelated one.
const SEEDS: [u64; 2] = [20220701, 7];

/// The four pod-management modes, as `(label, escra, resource_scale,
/// tiny baseline)`.
const MODES: [(&str, bool, f64, bool); 4] = [
    ("vanilla", false, 1.0, false),
    ("escra", true, 1.0, false),
    ("escra-0.8", true, 0.8, false),
    ("tiny", false, 1.0, true),
];

/// One pinned line per run: the readable scalars, and fingerprints of
/// the two large fields' full `Debug` renderings.
fn digest_line(label: &str, out: &ServerlessOutput) -> String {
    format!(
        "{label} policy={} succ={} fail={} oom_kills={} job_latency={:?} peak_pods={} \
         rounds={} ff={} bytes={} metrics={:016x} network={:016x}\n",
        out.metrics.policy,
        out.metrics.latency.successes(),
        out.metrics.latency.failures(),
        out.metrics.oom_kills,
        out.job_latency,
        out.peak_pods,
        out.rounds_executed,
        out.rounds_fast_forwarded,
        out.network.as_ref().map_or(0, |n| n.total_bytes()),
        trace_fingerprint(&format!("{:?}", out.metrics)),
        trace_fingerprint(&format!("{:?}", out.network)),
    )
}

fn render() -> String {
    let mut out = String::new();
    for grid in [false, true] {
        for (mode, escra, scale, tiny) in MODES {
            for seed in SEEDS {
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
                out.push_str(&digest_line(
                    &format!("app={app} mode={mode} seed={seed}"),
                    &run_serverless(&cfg, &profile),
                ));
            }
        }
    }
    out
}

#[test]
fn serverless_digests_match_committed_fixture() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/serverless_digests.txt");
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
        assert_eq!(want, got, "serverless golden diverged at line {}", i + 1);
    }
    assert_eq!(
        committed.lines().count(),
        rendered.lines().count(),
        "serverless golden line count changed"
    );
}
