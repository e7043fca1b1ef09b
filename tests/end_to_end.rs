//! Integration tests spanning the whole workspace: deploy → drive →
//! measure under each policy, checking the paper's headline claims hold
//! in-the-small on every run.

use escra::cluster::NodeId;
use escra::harness::{
    controller_addr, node_addr, run, run_traced, MicroSimConfig, MicroSimOutput, Policy,
};
use escra::metrics::trace::{render_merged, TraceRecorder};
use escra::net::FaultPlan;
use escra::simcore::time::{SimDuration, SimTime};
use escra::workloads::{hipster_shop, teastore, WorkloadKind};

fn quick(policy: Policy, seed: u64) -> MicroSimConfig {
    MicroSimConfig::new(teastore(), WorkloadKind::Fixed { rps: 200.0 }, policy, seed)
        .with_duration(SimDuration::from_secs(15))
}

/// The acceptance fault level: 10 % loss plus one 2 s partition of a
/// worker node from the Controller, mid-run.
fn lossy_partitioned() -> FaultPlan {
    FaultPlan::none().with_loss(0.10).with_partition(
        controller_addr(),
        node_addr(NodeId::new(1)),
        SimTime::from_secs(14),
        SimTime::from_secs(16),
    )
}

#[test]
fn escra_never_ooms() {
    // §VI-E: "In all 32 experiments, Escra experienced zero OOMs."
    for seed in [1, 7, 42] {
        let out = run(&quick(Policy::escra_default(), seed));
        assert_eq!(out.metrics.oom_kills, 0, "seed {seed}");
        assert_eq!(
            out.controller_stats.expect("escra stats").ooms_fatal,
            0,
            "seed {seed}"
        );
    }
}

#[test]
fn escra_never_ooms_under_loss_and_partition() {
    // The fault-tolerance claim: a lossy control plane with a partitioned
    // node must not get containers OOM-killed — lost grants are recovered
    // by the retry timer or by reconciliation on the next OOM event, and
    // the Agent-side valve holds last-known-good limits meanwhile.
    for seed in [1, 7, 42] {
        let cfg = quick(Policy::escra_default(), seed).with_faults(lossy_partitioned());
        let out = run(&cfg);
        let faults = out.fault_stats.expect("fault stats");
        assert!(
            faults.dropped > 0 && faults.partitioned > 0,
            "faults must actually fire (seed {seed}: {faults:?})"
        );
        assert_eq!(out.metrics.oom_kills, 0, "seed {seed}");
        assert_eq!(
            out.controller_stats.expect("escra stats").ooms_fatal,
            0,
            "seed {seed}"
        );
    }
}

#[test]
fn faulty_runs_with_identical_seeds_are_bit_reproducible() {
    let mk = || {
        quick(Policy::escra_default(), 9).with_faults(
            lossy_partitioned()
                .with_duplicates(0.03)
                .with_delay_spikes(0.03, SimDuration::from_millis(400)),
        )
    };
    let a = run(&mk());
    let b = run(&mk());
    assert_eq!(a.metrics.latency.successes(), b.metrics.latency.successes());
    assert_eq!(a.metrics.latency.p(99.9), b.metrics.latency.p(99.9));
    assert_eq!(a.fault_stats, b.fault_stats);
    assert_eq!(
        a.network.expect("net").total_bytes(),
        b.network.expect("net").total_bytes()
    );
}

#[test]
fn inactive_fault_plan_reproduces_the_faultless_run_exactly() {
    // A plan whose partition never overlaps the run and whose
    // probabilities are zero must not consume a single RNG draw, so the
    // run is bit-identical to one with no fault plan at all.
    let inert = FaultPlan::none().with_partition(
        controller_addr(),
        node_addr(NodeId::new(0)),
        SimTime::from_secs(9_000),
        SimTime::from_secs(9_002),
    );
    let a = run(&quick(Policy::escra_default(), 9));
    let b = run(&quick(Policy::escra_default(), 9).with_faults(inert));
    assert_eq!(a.metrics.latency.successes(), b.metrics.latency.successes());
    assert_eq!(a.metrics.latency.p(99.9), b.metrics.latency.p(99.9));
    assert_eq!(a.metrics.slack.cpu_p(50.0), b.metrics.slack.cpu_p(50.0));
    assert_eq!(
        a.network.expect("net").total_bytes(),
        b.network.expect("net").total_bytes()
    );
}

#[test]
fn traced_runs_equal_untraced_runs() {
    // Tracing records the Controller, every Agent and the fault injector
    // and changes nothing: on a faulty cell (the benchmark matrix's plan
    // plus a partition) the traced run's output is `run`'s, and two
    // traced runs merge to byte-identical traces.
    let faults = || {
        lossy_partitioned()
            .with_loss(0.05)
            .with_duplicates(0.02)
            .with_delay_spikes(0.02, SimDuration::from_millis(150))
    };
    let merged = |recorders: &[TraceRecorder]| {
        assert!(
            recorders.iter().all(|r| r.dropped() == 0),
            "a recorder wrapped"
        );
        render_merged(&recorders.iter().collect::<Vec<_>>())
    };
    for seed in [3, 11] {
        let ctx = format!("seed {seed}");
        let cfg = quick(Policy::escra_default(), seed).with_faults(faults());
        let plain = run(&cfg);
        let (traced, recorders) = run_traced(&cfg);
        assert_eq!(recorders.len(), 1 + cfg.worker_nodes + 1, "{ctx}");
        let faults_fired = recorders.last().expect("fault recorder").emitted();
        assert!(faults_fired > 0, "{ctx}: no fault was traced");
        assert_eq!(traced.fault_stats, plain.fault_stats, "{ctx}");
        assert_eq!(traced.controller_stats, plain.controller_stats, "{ctx}");
        assert_eq!(traced.sim, plain.sim, "{ctx}");
        assert_eq!(traced.pump_guard_trips, plain.pump_guard_trips, "{ctx}");
        let debug = |out: &MicroSimOutput| format!("{:?} {:?}", out.network, out.metrics);
        assert!(
            debug(&traced) == debug(&plain),
            "{ctx}: metrics or network differ"
        );
        let (_, again) = run_traced(&cfg);
        assert!(merged(&recorders) == merged(&again), "{ctx}: traces differ");
    }
}

#[test]
fn escra_respects_the_distributed_container_limit() {
    // The aggregate of all quotas must never exceed Ωl — the runtime
    // enforcement that distinguishes Distributed Containers from
    // admission-time Resource Quotas (§III).
    let app = teastore();
    let omega = app.global_cpu_cores;
    let cfg = MicroSimConfig::new(app, WorkloadKind::paper_burst(), Policy::escra_default(), 3)
        .with_duration(SimDuration::from_secs(20));
    let out = run(&cfg);
    let max_agg = out.metrics.cpu_limit_series.max().expect("limits sampled");
    assert!(
        max_agg <= omega + 1e-6,
        "aggregate limit {max_agg} exceeded Ω = {omega}"
    );
}

#[test]
fn identical_seeds_are_bit_reproducible() {
    let a = run(&quick(Policy::escra_default(), 9));
    let b = run(&quick(Policy::escra_default(), 9));
    assert_eq!(a.metrics.latency.successes(), b.metrics.latency.successes());
    assert_eq!(a.metrics.latency.p(99.9), b.metrics.latency.p(99.9));
    assert_eq!(a.metrics.slack.cpu_p(50.0), b.metrics.slack.cpu_p(50.0));
    assert_eq!(
        a.controller_stats.expect("stats").quota_updates,
        b.controller_stats.expect("stats").quota_updates
    );
}

#[test]
fn different_seeds_differ() {
    let a = run(&quick(Policy::escra_default(), 1));
    let b = run(&quick(Policy::escra_default(), 2));
    // Same workload shape, different sample paths.
    assert_ne!(a.metrics.latency.p(99.9), b.metrics.latency.p(99.9));
}

#[test]
fn all_policies_serve_the_fixed_workload() {
    for policy in [
        Policy::escra_default(),
        Policy::static_1_5x(),
        Policy::autopilot_default(),
    ] {
        let name = policy.name();
        let out = run(&quick(policy, 5));
        let tput = out.metrics.throughput();
        assert!(tput > 150.0, "{name}: tput {tput}");
    }
}

#[test]
fn escra_reduces_median_slack_on_hipster_burst() {
    // The headline trade-off (§VI-B): Escra cuts slack without giving up
    // throughput, on the workload the paper highlights.
    let mk = |policy| {
        MicroSimConfig::new(hipster_shop(), WorkloadKind::paper_burst(), policy, 2022)
            .with_duration(SimDuration::from_secs(30))
    };
    let escra = run(&mk(Policy::escra_default()));
    let fixed = run(&mk(Policy::static_1_5x()));
    assert!(
        escra.metrics.slack.cpu_p(50.0) < fixed.metrics.slack.cpu_p(50.0),
        "escra {} vs static {}",
        escra.metrics.slack.cpu_p(50.0),
        fixed.metrics.slack.cpu_p(50.0)
    );
    assert!(
        escra.metrics.slack.mem_p(50.0) < fixed.metrics.slack.mem_p(50.0),
        "escra mem {} vs static {}",
        escra.metrics.slack.mem_p(50.0),
        fixed.metrics.slack.mem_p(50.0)
    );
    assert!(escra.metrics.throughput() >= fixed.metrics.throughput() * 0.95);
}

#[test]
fn escra_telemetry_flows_and_is_accounted() {
    let out = run(&quick(Policy::escra_default(), 13));
    let stats = out.controller_stats.expect("stats");
    // 7 containers × 10 reports/s × ~15 s of measured run (plus warm-up).
    assert!(stats.cpu_stats_ingested > 1_000);
    assert!(stats.scale_ups > 0, "some throttles must have occurred");
    assert!(stats.scale_downs > 0, "some slack must have been reclaimed");
    assert!(stats.reclaim_sweeps >= 2, "5 s reclamation loop ran");
    let net = out.network.expect("escra accounts bytes");
    assert!(net.total_bytes() > 0);
    assert!(
        net.peak_mbps() < 100.0,
        "control plane must stay lightweight"
    );
}
