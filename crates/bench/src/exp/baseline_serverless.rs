//! Baseline-diversity benchmark for the dynamic-population drivers:
//! runs both OpenWhisk-style applications (ImageProcess, GridSearch)
//! and a trace-driven mega-mix smoke under the full policy roster —
//! vanilla OpenWhisk / static pods, the tiny autoscaler, ARC-V, and
//! Escra — and prints the cost-efficiency columns (normalized $ and
//! $/1k requests under the default cost model) next to the paper's
//! metrics.
//!
//! `--smoke` shrinks the ImageProcess run to one iteration and the
//! trace population for CI; the comparisons keep the same shape.

use escra_baselines::{ArcVConfig, TinyAutoscalerConfig};
use escra_bench::{write_json, Args, SEED};
use escra_core::EscraConfig;
use escra_harness::serverless_sim::{run_serverless, ServerlessApp, ServerlessConfig};
use escra_harness::{run_trace_sim, BaselineScalerKind, TraceSimConfig};
use escra_metrics::{to_json, CostBreakdown, CostModel, Table};
use escra_workloads::serverless::{grid_search_task, image_process};
use escra_workloads::{mega_mix, synthetic_trace};
use serde::Serialize;

/// One policy mode applied uniformly across all three drivers.
#[derive(Clone, Copy)]
enum Mode {
    /// Static per-pod limits (vanilla OpenWhisk / static trace pods).
    Vanilla,
    /// A [`PeriodicScaler`](escra_baselines::PeriodicScaler) baseline.
    Baseline(BaselineScalerKind),
    /// Escra's event-driven controller.
    Escra,
}

fn modes() -> [Mode; 4] {
    [
        Mode::Vanilla,
        Mode::Baseline(BaselineScalerKind::Tiny(TinyAutoscalerConfig::default())),
        Mode::Baseline(BaselineScalerKind::ArcV(ArcVConfig::default())),
        Mode::Escra,
    ]
}

/// `cfg` with `mode`'s scaler.
fn under(mode: Mode, mut cfg: ServerlessConfig) -> ServerlessConfig {
    match mode {
        Mode::Vanilla => {}
        Mode::Baseline(kind) => cfg.baseline = Some(kind),
        Mode::Escra => cfg.escra = Some(EscraConfig::default()),
    }
    cfg
}

#[derive(Serialize)]
struct CostRow {
    driver: String,
    policy: String,
    requests: u64,
    cost_cpu: f64,
    cost_mem: f64,
    cost_oom: f64,
    cost_total: f64,
    dollars_per_kilo_request: f64,
}

impl CostRow {
    fn new(driver: &str, policy: &str, requests: u64, cost: CostBreakdown) -> CostRow {
        CostRow {
            driver: driver.into(),
            policy: policy.into(),
            requests,
            cost_cpu: cost.cpu,
            cost_mem: cost.mem,
            cost_oom: cost.oom,
            cost_total: cost.total(),
            dollars_per_kilo_request: CostModel::default().per_kilo_request(&cost, requests),
        }
    }

    /// The table's cost($) and $/1k req columns.
    fn columns(&self) -> [String; 2] {
        [
            format!("{:.4}", self.cost_total),
            format!("{:.4}", self.dollars_per_kilo_request),
        ]
    }
}

pub fn run(args: &Args) {
    let smoke = args.smoke;
    let model = CostModel::default();
    let mut dump = Vec::new();

    // ---- ImageProcess: per-request latency + cost per policy ----
    let iterations = if smoke { 1 } else { 4 };
    println!("ImageProcess ({iterations} iterations x 750 requests)");
    let mut table = Table::new(vec![
        "policy",
        "mean(ms)",
        "p99(ms)",
        "succ",
        "cpu lim mean",
        "mem lim mean(MiB)",
        "cost($)",
        "$/1k req",
    ]);
    for mode in modes() {
        let cfg = ServerlessConfig {
            app: ServerlessApp::ImageProcess { iterations },
            ..ServerlessConfig::image_process(None, 11)
        };
        let out = run_serverless(&under(mode, cfg), &image_process());
        let m = &out.metrics;
        let row = CostRow::new(
            "image-process",
            &m.policy,
            m.latency.successes(),
            model.run_cost(m),
        );
        let [cost, per_kilo] = row.columns();
        table.row(vec![
            m.policy.clone(),
            format!("{:.0}", m.latency.mean_ms()),
            format!("{:.0}", m.latency.p(99.0)),
            format!("{}", m.latency.successes()),
            format!("{:.2}", m.cpu_limit_series.mean()),
            format!("{:.0}", m.mem_limit_series.mean()),
            cost,
            per_kilo,
        ]);
        dump.push(row);
        eprintln!("  {} done", m.policy);
    }
    println!("{}", table.render());

    // ---- GridSearch: end-to-end job latency + cost per policy ----
    println!("GridSearch (one run per policy)");
    let mut table = Table::new(vec![
        "policy",
        "job(s)",
        "cpu lim mean",
        "mem lim mean(MiB)",
        "cost($)",
        "$/1k req",
    ]);
    for mode in modes() {
        let cfg = under(mode, ServerlessConfig::grid_search(None, 100));
        let out = run_serverless(&cfg, &grid_search_task());
        let m = &out.metrics;
        let row = CostRow::new(
            "grid-search",
            &m.policy,
            m.latency.successes(),
            model.run_cost(m),
        );
        let [cost, per_kilo] = row.columns();
        table.row(vec![
            m.policy.clone(),
            format!(
                "{:.1}",
                out.job_latency.expect("job completes").as_secs_f64()
            ),
            format!("{:.2}", m.cpu_limit_series.mean()),
            format!("{:.0}", m.mem_limit_series.mean()),
            cost,
            per_kilo,
        ]);
        dump.push(row);
        eprintln!("  {} done", m.policy);
    }
    println!("{}", table.render());

    // ---- Trace-driven smoke: mega-mix population per policy ----
    let (apps, minutes, nodes) = if smoke { (120, 2, 4) } else { (2_000, 4, 48) };
    let population = synthetic_trace(&mega_mix(apps, minutes, SEED));
    println!("Trace mega-mix smoke ({apps} apps, {minutes} min, {nodes} nodes)");
    let mut table = Table::new(vec![
        "policy",
        "invocations",
        "p99.9(ms)",
        "OOMs",
        "alloc core-s",
        "alloc MiB-s",
        "cost($)",
        "$/1k req",
    ]);
    for mode in modes() {
        let mut cfg = TraceSimConfig::paper_like(None, SEED, nodes);
        match mode {
            Mode::Vanilla => {}
            Mode::Baseline(kind) => cfg.baseline = Some(kind),
            Mode::Escra => {
                cfg = TraceSimConfig::paper_like(Some(EscraConfig::default()), SEED, nodes)
            }
        }
        let out = run_trace_sim(&population, &cfg);
        let m = &out.metrics;
        let cost = model.serverless_cost(&out.serverless, m.oom_kills);
        let row = CostRow::new("trace", &m.policy, out.serverless.invocations, cost);
        let [cost, per_kilo] = row.columns();
        table.row(vec![
            m.policy.clone(),
            format!("{}", out.serverless.invocations),
            format!("{:.1}", m.latency.p(99.9)),
            format!("{}", m.oom_kills),
            format!("{:.0}", out.serverless.alloc_cpu_core_secs),
            format!("{:.0}", out.serverless.alloc_mem_mib_secs),
            cost,
            per_kilo,
        ]);
        dump.push(row);
        eprintln!("  {} done", m.policy);
    }
    println!("{}", table.render());

    let path = write_json("baseline_serverless", &to_json(&dump));
    println!("cost rows written to {}", path.display());
}
