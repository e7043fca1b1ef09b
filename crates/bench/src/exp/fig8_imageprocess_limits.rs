//! Regenerates **Fig. 8**: aggregate CPU and memory limits over time for
//! ImageProcess under OpenWhisk vs OpenWhisk + Escra, plus the savings
//! series (OpenWhisk limit minus Escra limit).

use escra_bench::{limits_figure, Args};
use escra_core::EscraConfig;
use escra_harness::serverless_sim::{run_serverless, ServerlessApp, ServerlessConfig};
use escra_workloads::serverless::image_process;

pub fn run(_: &Args) {
    let run = |escra: bool| {
        let cfg = ServerlessConfig {
            app: ServerlessApp::ImageProcess { iterations: 1 },
            ..ServerlessConfig::image_process(escra.then(EscraConfig::default), 11)
        };
        run_serverless(&cfg, &image_process()).metrics
    };
    let vanilla = run(false);
    let escra = run(true);
    let (v, e) = (&vanilla, &escra);
    let (v_cpu, e_cpu) = (v.cpu_limit_series.mean(), e.cpu_limit_series.mean());
    let (v_mem, e_mem) = (v.mem_limit_series.mean(), e.mem_limit_series.mean());
    limits_figure(
        "fig8_imageprocess_limits",
        &[
            "Fig. 8 — ImageProcess aggregate limits (30 s buckets over one iteration)",
            "(paper: OpenWhisk ~12 vCPU vs Escra ~7 vCPU, memory savings ~1550 MiB)",
        ],
        v,
        e,
        &[format!(
            "means: OW cpu {v_cpu:.1} cores vs Escra {e_cpu:.1} (saving {:.1}); \
             OW mem {v_mem:.0} MiB vs Escra {e_mem:.0} (saving {:.0})",
            v_cpu - e_cpu,
            v_mem - e_mem,
        )],
    );
}
