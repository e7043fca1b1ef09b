//! Regenerates **Fig. 9**: aggregate CPU and memory limits over the
//! lifetime of one GridSearch job, OpenWhisk vs OpenWhisk + Escra, plus
//! the savings series.

use escra_bench::{limits_figure, Args};
use escra_core::EscraConfig;
use escra_harness::serverless_sim::{run_serverless, ServerlessConfig};
use escra_workloads::serverless::grid_search_task;

pub fn run(_: &Args) {
    let run = |escra: bool| {
        let cfg = ServerlessConfig::grid_search(escra.then(EscraConfig::default), 100);
        run_serverless(&cfg, &grid_search_task())
    };
    let vanilla = run(false);
    let escra = run(true);
    let (v, e) = (&vanilla.metrics, &escra.metrics);
    let (v_cpu, e_cpu) = (v.cpu_limit_series.mean(), e.cpu_limit_series.mean());
    let (v_mem, e_mem) = (v.mem_limit_series.mean(), e.mem_limit_series.mean());
    limits_figure(
        "fig9_gridsearch_limits",
        &[
            "Fig. 9 — GridSearch aggregate limits (30 s buckets over the job)",
            "(paper: OpenWhisk 113 vCPU / 29 087 MiB vs Escra 53 vCPU / 22 264 MiB on",
            " average — ~60 vCPU and ~7 GiB saved)",
        ],
        v,
        e,
        &[
            format!(
                "means: OW cpu {v_cpu:.1} vs Escra {e_cpu:.1} (saving {:.1} vCPU); \
                 OW mem {v_mem:.0} MiB vs Escra {e_mem:.0} (saving {:.0} MiB)",
                v_cpu - e_cpu,
                v_mem - e_mem,
            ),
            format!(
                "job latency: OW {:.0}s vs Escra {:.0}s",
                vanilla.job_latency.expect("completes").as_secs_f64(),
                escra.job_latency.expect("completes").as_secs_f64(),
            ),
        ],
    );
}
