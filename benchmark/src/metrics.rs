//! The benchmark's contract as tables: workloads, end-to-end metrics
//! with their regression bounds, per-layer metrics. A unit test holds
//! `BENCHMARK.json` at the repository root to these tables, so the
//! program and the contract cannot drift apart.

/// Seconds one run measures by default (`run_seconds` in
/// `BENCHMARK.json`): four repetitions of a little over 2 s each after
/// the three that end the set-ups.
pub const RUN_SECONDS: u64 = 10;

/// The five workloads and why each is there.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "trace_dense",
        "trace_sim on mega_mix sub-clusters, ~150 live pods per node: the busy per-period loop (cfs, cluster lookups, Agent::apply, columnar encode + ingest) does nearly all the work",
    ),
    (
        "trace_sparse",
        "same driver and code, 20 rare-firing apps per sub-cluster: wake-ups, deploy/terminate, register/deregister and idle fast-forward; a per-period-loop optimisation must show no change here",
    ),
    (
        "micro_scale",
        "microsim on 10000 nodes x 12000 containers with 1-2 entry row datagrams: event-heap traffic, per-node flush bookkeeping and cfs::node::arbitrate dominate",
    ),
    (
        "paper_matrix",
        "the paper's evaluation in one repetition: 4 apps x 3 loads under Escra with faults, five baselines, ImageProcess, GridSearch: queueing, net faults, OOM grant/retry/ack, reclamation, baselines",
    ),
    (
        "ctl_mixed",
        "the Controller alone on 2000 apps / 100k containers / 256 nodes: core::controller + core::allocator do all the work, with OOM events, acks, reclaim reports, ticks and churn beside CPU telemetry",
    ),
];

/// One end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Simulated (exact for one seed) rather than host time or memory.
    pub exact: bool,
}

/// The eight end-to-end metrics; lower is better for all of them.
///
/// The driver measures every workload ten times with ten different
/// seeds and holds each metric's spread (quartile distance over median)
/// against its bound, so a bound covers noise *and* how far the metric's
/// true value moves from seed to seed. The rule the driver's contract
/// gives is a bound of three times the widest spread seen; each bound
/// here is that, over the ten-seed passes and the same-seed
/// self-checks in `NOISE.md`, rounded up and capped at the contract's
/// 0.25 (`setup_s` has to have the largest). `ctl_mixed`, which lives in
/// the shared L3, is the workload that sets the timing bounds. For the exact metrics the spread is entirely seed-to-seed —
/// for one seed they repeat to the last digit — and `throttled_frac`
/// (9 % on `trace_sparse`) and `cpu_slack_p99_cores` (up to 10 % on
/// `paper_matrix`) are bounded by their worst workload.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "ns_per_cp",
        unit: "ns",
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "decision_p50_us",
        unit: "us",
        bound: 0.15,
        exact: false,
    },
    EndToEnd {
        name: "decision_p99_us",
        unit: "us",
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        bound: 0.18,
        exact: false,
    },
    EndToEnd {
        name: "control_bytes_per_cp",
        unit: "B",
        bound: 0.04,
        exact: true,
    },
    EndToEnd {
        name: "cpu_slack_p99_cores",
        unit: "cores",
        bound: 0.25,
        exact: true,
    },
    EndToEnd {
        name: "throttled_frac",
        unit: "ratio",
        bound: 0.25,
        exact: true,
    },
];

/// The per-layer metrics of the traced run: `(name, unit, better)`.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("workloads.synthetic_trace.apps_per_s", "1/s", "higher"),
    ("workloads.trace_workload.sample_exec_ns", "ns", "lower"),
    ("simcore.rng.exponential_ns", "ns", "lower"),
    ("workloads.generators.arrival_ns", "ns", "lower"),
    ("harness.queueing.drain_fifo_ns_per_job", "ns", "lower"),
    ("simcore.events.push_pop_ns", "ns", "lower"),
    ("harness.microsim.heap_events_per_cp", "ratio", "lower"),
    ("simcore.histogram.record_ns", "ns", "lower"),
    ("metrics.recorders.latency_record_ns", "ns", "lower"),
    ("metrics.recorders.slack_record_ns", "ns", "lower"),
    ("metrics.serverless.completion_record_ns", "ns", "lower"),
    ("simcore.window.push_ns", "ns", "lower"),
    ("core.allocator.on_cpu_stats_ns", "ns", "lower"),
    ("cfs.cpu.period_ns", "ns", "lower"),
    ("cfs.memory.charge_ns", "ns", "lower"),
    ("cfs.memory.oom_trap_frac", "ratio", "lower"),
    ("cfs.node.arbitrate_ns_per_demand", "ns", "lower"),
    ("cluster.lookup_ns", "ns", "lower"),
    ("cluster.tick_ns_per_container", "ns", "lower"),
    ("cluster.deploy_terminate_ns", "ns", "lower"),
    ("core.controller.register_pair_ns", "ns", "lower"),
    (
        "harness.trace_sim.cold_starts_per_invocation",
        "ratio",
        "lower",
    ),
    ("harness.trace_sim.ff_round_frac", "ratio", "higher"),
    ("net.fabric.send_poll_ns", "ns", "lower"),
    ("net.fault.decide_ns", "ns", "lower"),
    ("net.fault.dropped_frac", "ratio", "lower"),
    ("net.accounting.record_ns", "ns", "lower"),
    ("core.telemetry.columns_push_ns", "ns", "lower"),
    ("core.telemetry.rows_push_ns", "ns", "lower"),
    ("core.telemetry.wire_bytes_per_entry", "B", "lower"),
    ("core.controller.ingest_columns_ns_per_entry", "ns", "lower"),
    (
        "core.controller.ingest_columns_scalar_ns_per_entry",
        "ns",
        "lower",
    ),
    ("core.controller.ingest_batch_ns_per_entry", "ns", "lower"),
    ("core.controller.ingest_single_ns_per_entry", "ns", "lower"),
    ("core.controller.actions_per_entry", "ratio", "lower"),
    ("core.controller.oom_event_ns", "ns", "lower"),
    ("core.controller.limit_ack_ns", "ns", "lower"),
    ("core.controller.reclaim_report_ns_per_entry", "ns", "lower"),
    ("core.controller.tick_ns", "ns", "lower"),
    ("core.controller.grant_retry_frac", "ratio", "lower"),
    ("core.sharded.router_ns_per_entry", "ns", "lower"),
    ("core.sharded.worker_ns_per_entry_s1", "ns", "lower"),
    ("core.sharded.worker_ns_per_entry_s2", "ns", "lower"),
    ("core.agent.apply_ns", "ns", "lower"),
    ("core.agent.reclaim_sweep_ns_per_container", "ns", "lower"),
    ("core.agent.stale_discard_frac", "ratio", "lower"),
    ("baselines.static.step_ns", "ns", "lower"),
    ("baselines.autopilot.step_ns", "ns", "lower"),
    ("baselines.vpa.step_ns", "ns", "lower"),
    ("baselines.tiny.step_ns", "ns", "lower"),
    ("baselines.arc_v.step_ns", "ns", "lower"),
    ("metrics.trace.record_ns", "ns", "lower"),
    ("metrics.expo.render_ms", "ms", "lower"),
    ("metrics.cost.run_cost_ms", "ms", "lower"),
    ("mc.explore.states_per_s", "1/s", "higher"),
    ("harness.trace_sim.wall_s", "s", "lower"),
    ("harness.microsim.wall_s", "s", "lower"),
    ("harness.serverless_sim.wall_s", "s", "lower"),
    ("harness.self_frac", "ratio", "lower"),
    ("bench.timer_ns", "ns", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
];

/// Looks up an end-to-end metric.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly these tables: every entry is there
    /// as written here, and nothing else is.
    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let mut expected = vec![format!("\"run_seconds\": {RUN_SECONDS},")];
        for (name, why) in WORKLOADS {
            expected.push(format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}"));
        }
        for m in END_TO_END {
            expected.push(format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            ));
        }
        for (name, unit, better) in PER_LAYER {
            expected.push(format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}"
            ));
        }
        for entry in &expected {
            assert!(committed.contains(entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            committed.matches("{\"name\": ").count(),
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists something the tables do not"
        );
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().unwrap().is_ascii_alphanumeric()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER
            .iter()
            .all(|m| unit_ok(m.1) && ["higher", "lower"].contains(&m.2)));
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!(setup.unit, "s");
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }
}
