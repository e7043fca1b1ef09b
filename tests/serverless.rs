//! Integration tests for the serverless path (paper §VI-F/G).

use escra::baselines::TinyAutoscalerConfig;
use escra::core::EscraConfig;
use escra::harness::serverless_sim::{run_serverless, ServerlessApp, ServerlessConfig};
use escra::harness::BaselineScalerKind;
use escra::workloads::serverless::{grid_search_task, image_process, GRID_SEARCH_TASKS};

fn one_iteration(escra: bool, seed: u64) -> ServerlessConfig {
    ServerlessConfig {
        app: ServerlessApp::ImageProcess { iterations: 1 },
        ..ServerlessConfig::image_process(escra.then(EscraConfig::default), seed)
    }
}

#[test]
fn image_process_serves_all_750_requests() {
    for escra in [false, true] {
        let out = run_serverless(&one_iteration(escra, 4), &image_process());
        let m = &out.metrics;
        assert!(
            m.latency.successes() >= 745,
            "escra={escra}: {} successes",
            m.latency.successes()
        );
        assert!(m.latency.mean_ms() > 500.0 && m.latency.mean_ms() < 5_000.0);
    }
}

#[test]
fn escra_cuts_serverless_reservations_without_latency_collapse() {
    // §VI-G/H: "Escra increased efficiency while maintaining performance."
    let vanilla = run_serverless(&one_iteration(false, 8), &image_process());
    let escra = run_serverless(&one_iteration(true, 8), &image_process());
    assert!(
        escra.metrics.cpu_limit_series.mean() < vanilla.metrics.cpu_limit_series.mean(),
        "cpu: escra {} vs vanilla {}",
        escra.metrics.cpu_limit_series.mean(),
        vanilla.metrics.cpu_limit_series.mean()
    );
    assert!(escra.metrics.mem_limit_series.mean() < vanilla.metrics.mem_limit_series.mean());
    assert!(escra.metrics.latency.mean_ms() < vanilla.metrics.latency.mean_ms() * 1.25);
}

#[test]
fn grid_search_completes_under_both_configs() {
    for escra in [false, true] {
        let cfg = ServerlessConfig::grid_search(escra.then(EscraConfig::default), 31);
        let out = run_serverless(&cfg, &grid_search_task());
        let latency = out
            .job_latency
            .unwrap_or_else(|| panic!("escra={escra}: job must finish"));
        let secs = latency.as_secs_f64();
        // Paper: ~300 s; accept a generous band around the model.
        assert!((120.0..=900.0).contains(&secs), "escra={escra}: {secs}s");
        assert!(out.metrics.latency.successes() as usize >= GRID_SEARCH_TASKS);
    }
}

#[test]
fn grid_search_at_80_percent_resources_stays_close() {
    // §VI-G case (3): 80 % of the resources, ~1 % higher latency.
    let full = run_serverless(
        &ServerlessConfig::grid_search(Some(EscraConfig::default()), 77),
        &grid_search_task(),
    );
    let mut cfg = ServerlessConfig::grid_search(Some(EscraConfig::default()), 77);
    cfg.resource_scale = 0.8;
    let scaled = run_serverless(&cfg, &grid_search_task());
    let full_s = full.job_latency.expect("finishes").as_secs_f64();
    let scaled_s = scaled.job_latency.expect("finishes").as_secs_f64();
    assert!(
        scaled_s < full_s * 1.15,
        "80% resources {scaled_s}s vs full {full_s}s"
    );
}

#[test]
fn serverless_runs_are_deterministic() {
    let a = run_serverless(&one_iteration(true, 3), &image_process());
    let b = run_serverless(&one_iteration(true, 3), &image_process());
    assert_eq!(a.metrics.latency.p(99.0), b.metrics.latency.p(99.0));
    assert_eq!(a.peak_pods, b.peak_pods);
}

#[test]
fn an_oom_killed_activation_is_retried_not_lost() {
    // Pods start at 128 MiB, below ImageProcess's 150 MiB working set:
    // the first activation on every pod is OOM-killed. The kill tells
    // the tiny autoscaler, which raises the limit, so the retry fits.
    // Every one of the 750 scheduled activations must come out the far
    // end — the killed ones late (latency runs from the original
    // arrival), none silently dropped.
    for seed in [4, 8] {
        let mut cfg = one_iteration(false, seed);
        cfg.baseline = Some(BaselineScalerKind::Tiny(TinyAutoscalerConfig::default()));
        cfg.openwhisk.pod_mem_mib = 128;
        let out = run_serverless(&cfg, &image_process());
        let m = &out.metrics;
        assert!(
            m.oom_kills > 0,
            "seed {seed}: the scenario must force kills"
        );
        assert_eq!(
            m.latency.successes() + m.latency.failures(),
            750,
            "seed {seed}: {} kills lost activations",
            m.oom_kills
        );
    }
}
