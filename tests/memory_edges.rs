//! Memory-path edge tests, asserted through the §VI trace events: the
//! reclamation `limit == usage + δ` boundary, a grant that lands on
//! exactly-zero pool headroom, reconciliation of a duplicated OOM
//! (which must not double-count pool bytes), and the
//! sweep-credits-before-retry ordering of the reclaim-then-grant path.
//!
//! Each test runs the real `Controller<TraceRecorder>` (and, where the
//! node side matters, a real `Cluster` + `Agent`) and then reads the
//! recorded event stream — the same stream `trace_dump` exposes — so
//! the assertions hold the *observable* story to the books, not just
//! the books to themselves.

use escra::cluster::{AppId, Cluster, ContainerId, ContainerSpec, NodeId, NodeSpec};
use escra::core::{Agent, Controller, EscraConfig, ToController, TraceRecorder};
use escra::metrics::trace::TraceEventKind;
use escra::simcore::time::SimTime;

const MIB: u64 = 1 << 20;
const APP: AppId = AppId::new(0);
const NODE: NodeId = NodeId::new(0);

fn recorder() -> TraceRecorder {
    TraceRecorder::with_capacity(256)
}

fn one_node_cluster() -> Cluster {
    Cluster::new(vec![NodeSpec {
        cores: 8,
        mem_bytes: 8 << 30,
    }])
}

/// Deploys a container with a fixed base usage and memory limit and
/// runs the cluster past cold start.
fn deploy(cluster: &mut Cluster, name: &str, base: u64, limit: u64) -> ContainerId {
    cluster
        .deploy(
            ContainerSpec::new(name, APP)
                .with_base_mem(base)
                .with_mem_limit(limit),
            SimTime::ZERO,
        )
        .expect("deploy")
}

/// §IV-C sweep boundary: a container sitting at `limit == usage + δ`
/// exactly is NOT shrunk; one byte of extra slack above δ is. No shrink
/// ever raises a limit.
#[test]
fn reclaim_sweep_respects_delta_edge_and_never_grows() {
    let cfg = EscraConfig::default();
    let delta = cfg.delta_bytes; // 50 MiB default
    let mut cluster = one_node_cluster();
    // `at_edge`: limit - usage == δ exactly. `slack`: δ + 16 MiB over.
    let at_edge = deploy(&mut cluster, "edge", 46 * MIB, 46 * MIB + delta);
    let slack = deploy(&mut cluster, "slack", 30 * MIB, 96 * MIB);
    let start = SimTime::from_millis(2_500);
    cluster.tick(start);

    let agent = Agent::new(NODE);
    let mut rec = recorder();
    let entries = agent.reclaim_sweep_traced(start, &mut cluster, delta, &mut rec);

    // Exactly one shrink: the slack container, down to usage + δ.
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].container, slack);
    assert_eq!(entries[0].new_limit_bytes, 30 * MIB + delta);
    assert_eq!(entries[0].psi_bytes, 96 * MIB - (30 * MIB + delta));
    let shrinks: Vec<_> = rec
        .iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::ReclaimShrink {
                container,
                new_limit_bytes,
                psi_bytes,
            } => Some((container, new_limit_bytes, psi_bytes)),
            _ => None,
        })
        .collect();
    assert_eq!(
        shrinks,
        vec![(
            slack.as_u64(),
            30 * MIB + delta,
            96 * MIB - (30 * MIB + delta)
        )]
    );
    // The edge container was left alone — by the books and the trace.
    assert_eq!(
        cluster.container(at_edge).unwrap().mem.limit_bytes(),
        46 * MIB + delta
    );
    assert!(!shrinks.iter().any(|(c, ..)| *c == at_edge.as_u64()));
    // No-grow: every shrink strictly reduced the limit (ψ > 0).
    assert!(shrinks.iter().all(|(_, _, psi)| *psi > 0));
}

/// A grant that consumes the pool's last unallocated byte is still a
/// grant; the very next OOM flips to GrantDenied + ReclaimSweep.
#[test]
fn grant_on_exactly_zero_headroom_then_denied() {
    let cfg = EscraConfig::default();
    // Pool = initial limit + exactly one 64 MiB shortfall of headroom.
    let mut ctl = Controller::with_sink(cfg, recorder());
    ctl.register_app(APP, 8.0, 96 * MIB + 64 * MIB);
    let c = ContainerId::new(0);
    ctl.register_container(c, APP, NODE, 1.0, 96 * MIB)
        .expect("register");
    let pool = ctl.allocator().app_pool(APP).unwrap();
    assert_eq!(pool.unallocated_mem_bytes(), 64 * MIB);

    let t = SimTime::from_millis(100);
    let mut actions = Vec::new();
    ctl.handle_into(
        t,
        ToController::OomEvent {
            container: c,
            shortfall_bytes: 64 * MIB,
            current_limit_bytes: 96 * MIB,
        },
        &mut actions,
    );
    assert_eq!(actions.len(), 1);
    // Granted to the last byte: limit 160 MiB, headroom now zero.
    assert_eq!(ctl.allocator().mem_limit_of(c), Some(160 * MIB));
    assert_eq!(
        ctl.allocator()
            .app_pool(APP)
            .unwrap()
            .unallocated_mem_bytes(),
        0
    );

    let t2 = SimTime::from_millis(200);
    actions.clear();
    ctl.handle_into(
        t2,
        ToController::OomEvent {
            container: c,
            shortfall_bytes: 8 * MIB,
            current_limit_bytes: 160 * MIB,
        },
        &mut actions,
    );
    // Denied: the answer is a cluster-wide sweep, not a grant, and the
    // tracked limit did not move.
    assert!(!actions.is_empty());
    assert_eq!(ctl.allocator().mem_limit_of(c), Some(160 * MIB));

    let kinds: Vec<&'static str> = ctl.sink().iter().map(|e| e.kind.label()).collect();
    assert_eq!(
        kinds,
        vec![
            "oom_trap",
            "grant_issued",
            "oom_trap",
            "grant_denied",
            "reclaim_sweep"
        ]
    );
}

/// Grant accounting never double-counts: Σ of the per-grant limit
/// deltas visible in the trace equals the pool's allocated-bytes delta,
/// and a GrantReconciled (duplicated OOM reporting a stale limit)
/// moves zero pool bytes.
#[test]
fn grant_deltas_match_pool_and_reconcile_is_free() {
    let cfg = EscraConfig::default();
    let mut ctl = Controller::with_sink(cfg, recorder());
    ctl.register_app(APP, 8.0, 1024 * MIB);
    let c0 = ContainerId::new(0);
    let c1 = ContainerId::new(1);
    for c in [c0, c1] {
        ctl.register_container(c, APP, NODE, 1.0, 96 * MIB)
            .expect("register");
    }
    let allocated_before = ctl.allocator().app_pool(APP).unwrap().allocated_mem_bytes();

    let t = SimTime::from_millis(100);
    // Real OOM on c0 (shortfall below the 32 MiB grant block → block-
    // sized grant), then a *duplicate* of the same OOM still reporting
    // the old 96 MiB limit, then a real OOM on c1.
    let oom = |container, current| ToController::OomEvent {
        container,
        shortfall_bytes: 8 * MIB,
        current_limit_bytes: current,
    };
    let mut actions = Vec::new();
    ctl.handle_into(t, oom(c0, 96 * MIB), &mut actions);
    let allocated_mid = ctl.allocator().app_pool(APP).unwrap().allocated_mem_bytes();
    ctl.handle_into(t, oom(c0, 96 * MIB), &mut actions); // duplicate → reconcile
    assert_eq!(
        ctl.allocator().app_pool(APP).unwrap().allocated_mem_bytes(),
        allocated_mid,
        "reconcile must not touch the pool"
    );
    ctl.handle_into(t, oom(c1, 96 * MIB), &mut actions);
    let allocated_after = ctl.allocator().app_pool(APP).unwrap().allocated_mem_bytes();

    // Replay the trace against a limits ledger: each GrantIssued's
    // delta over the previously known limit, summed, must equal the
    // pool movement; GrantReconciled re-sends a known limit (delta 0).
    let mut limits =
        std::collections::BTreeMap::from([(c0.as_u64(), 96 * MIB), (c1.as_u64(), 96 * MIB)]);
    let mut granted_sum = 0u64;
    let mut reconciles = 0u32;
    for e in ctl.sink().iter() {
        match e.kind {
            TraceEventKind::GrantIssued {
                container,
                new_limit_bytes,
            } => {
                let prev = limits.insert(container, new_limit_bytes).expect("known");
                assert!(new_limit_bytes > prev, "grants only grow the limit");
                granted_sum += new_limit_bytes - prev;
            }
            TraceEventKind::GrantReconciled {
                container,
                tracked_limit_bytes,
            } => {
                assert_eq!(limits[&container], tracked_limit_bytes);
                reconciles += 1;
            }
            _ => {}
        }
    }
    assert_eq!(reconciles, 1);
    assert_eq!(granted_sum, allocated_after - allocated_before);
    assert_eq!(granted_sum, 2 * 32 * MIB); // two block-sized grants
}

/// Abandon-then-ack audit: when a grant exhausts `grant_max_retries`
/// the pool headroom it reserved is settled exactly once — the granted
/// bytes stay on the books (the agent may well have applied a send
/// whose ack was lost, so forgetting them could double-spend the pool)
/// and the next OOM reconciles the limit. A straggler ack arriving
/// *after* the abandonment must not move the pool and must not emit a
/// second grant lifecycle event.
#[test]
fn abandoned_grant_settles_pool_exactly_once_despite_straggler_ack() {
    let cfg = EscraConfig::default();
    let max_retries = cfg.grant_max_retries;
    let mut ctl = Controller::with_sink(cfg, recorder());
    ctl.register_app(APP, 8.0, 1024 * MIB);
    let c = ContainerId::new(0);
    ctl.register_container(c, APP, NODE, 1.0, 96 * MIB)
        .expect("register");
    let allocated_before = ctl.allocator().app_pool(APP).unwrap().allocated_mem_bytes();

    // OOM → 32 MiB block grant; the SetMemLimit is never acked.
    let t = SimTime::from_millis(100);
    let mut actions = Vec::new();
    ctl.handle_into(
        t,
        ToController::OomEvent {
            container: c,
            shortfall_bytes: 8 * MIB,
            current_limit_bytes: 96 * MIB,
        },
        &mut actions,
    );
    assert_eq!(actions.len(), 1);
    let allocated_after_grant = ctl.allocator().app_pool(APP).unwrap().allocated_mem_bytes();
    assert_eq!(allocated_after_grant - allocated_before, 32 * MIB);

    // Let the retry timer run dry: max_retries re-sends, then abandon.
    let mut last_seq = None;
    for step in 1..(max_retries as u64 + 3) {
        actions.clear();
        ctl.tick_into(SimTime::from_millis(100 + 600 * step), &mut actions);
        for a in &actions {
            if let escra::core::Action::Agent {
                cmd: escra::core::ToAgent::SetMemLimit { seq, .. },
                ..
            } = a
            {
                last_seq = Some(*seq);
            }
        }
    }
    assert_eq!(ctl.pending_grant_count(), 0);
    assert_eq!(ctl.stats().grants_abandoned, 1);
    assert_eq!(ctl.stats().grant_retries, max_retries as u64);
    // Abandonment settles nothing twice: the granted bytes are still
    // allocated exactly once.
    assert_eq!(
        ctl.allocator().app_pool(APP).unwrap().allocated_mem_bytes(),
        allocated_after_grant
    );

    // The straggler: the agent's ack of the last re-send finally lands,
    // after the grant was written off. It must not credit or debit the
    // pool, must not resurrect or re-clear a pending grant, and must
    // not add a grant_acked to the story.
    let straggler_seq = last_seq.expect("at least one retry was sent");
    ctl.handle_into(
        SimTime::from_secs(10),
        ToController::LimitAck {
            container: c,
            seq: straggler_seq,
        },
        &mut actions,
    );
    assert_eq!(ctl.pending_grant_count(), 0);
    assert_eq!(
        ctl.allocator().app_pool(APP).unwrap().allocated_mem_bytes(),
        allocated_after_grant,
        "a straggler ack after abandonment must not move the pool"
    );
    assert_eq!(ctl.allocator().tracked_mem_sum(APP), 96 * MIB + 32 * MIB);

    // The next OOM from the (still-96 MiB-limited) container reconciles
    // the tracked 128 MiB limit instead of granting again.
    ctl.handle_into(
        SimTime::from_secs(11),
        ToController::OomEvent {
            container: c,
            shortfall_bytes: 8 * MIB,
            current_limit_bytes: 96 * MIB,
        },
        &mut actions,
    );
    assert_eq!(
        ctl.allocator().app_pool(APP).unwrap().allocated_mem_bytes(),
        allocated_after_grant,
        "reconciliation re-sends the tracked limit without pool movement"
    );

    // The observable story, in order: one grant lifecycle that ends in
    // abandonment (no grant_acked anywhere), then the reconcile.
    let kinds: Vec<&'static str> = ctl.sink().iter().map(|e| e.kind.label()).collect();
    let mut expected = vec!["oom_trap", "grant_issued"];
    expected.extend(std::iter::repeat_n("grant_retried", max_retries as usize));
    expected.extend(["grant_abandoned", "oom_trap", "grant_reconciled"]);
    assert_eq!(kinds, expected);
}

/// The reclaim-then-grant path: every ReclaimApplied credit lands in
/// the trace (and the pool) before the pending OOM's retry outcome,
/// and the retry grant spends no more than headroom + Σψ.
#[test]
fn sibling_reclaim_credits_pool_before_retry() {
    let cfg = EscraConfig::default();
    let delta = cfg.delta_bytes;
    let mut cluster = one_node_cluster();
    // `hungry` OOMs; `donor` holds 36 MiB of reclaimable slack.
    let hungry = deploy(&mut cluster, "hungry", 60 * MIB, 96 * MIB);
    let donor = deploy(&mut cluster, "donor", 10 * MIB, 96 * MIB);
    let start = SimTime::from_millis(2_500);
    cluster.tick(start);

    let mut ctl = Controller::with_sink(cfg.clone(), recorder());
    ctl.register_app(APP, 8.0, 200 * MIB); // 8 MiB headroom after the two 96s
    for c in [hungry, donor] {
        ctl.register_container(c, APP, NODE, 1.0, 96 * MIB)
            .expect("register");
    }
    let pool = ctl.allocator().app_pool(APP).unwrap();
    assert_eq!(pool.unallocated_mem_bytes(), 8 * MIB);

    // 40 MiB shortfall > 8 MiB headroom → denied, sweep requested.
    let t = SimTime::from_millis(2_600);
    let mut sweep_actions = Vec::new();
    ctl.handle_into(
        t,
        ToController::OomEvent {
            container: hungry,
            shortfall_bytes: 40 * MIB,
            current_limit_bytes: 96 * MIB,
        },
        &mut sweep_actions,
    );
    assert!(!sweep_actions.is_empty(), "denied OOM must launch a sweep");

    // The node runs the sweep: donor shrinks to usage + δ = 60 MiB
    // (ψ = 36 MiB); hungry (60 MiB used, 96 limit) is within δ — kept.
    let agent = Agent::new(NODE);
    let entries = agent.reclaim_sweep(&mut cluster, delta);
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].container, donor);
    let psi = entries[0].psi_bytes;
    assert_eq!(psi, 96 * MIB - (10 * MIB + delta));

    let retry_actions = ctl.on_reclaim_report(t, &entries);
    // ψ + headroom (44 MiB) covers the 40 MiB retry: grant, no kill.
    assert_eq!(ctl.allocator().mem_limit_of(hungry), Some(136 * MIB));
    assert_eq!(ctl.allocator().mem_limit_of(donor), Some(60 * MIB));
    assert!(retry_actions
        .iter()
        .all(|a| !matches!(a, escra::core::Action::KillContainer(_))));

    // Trace ordering: trap → denied → sweep → every credit → the grant.
    let kinds: Vec<&'static str> = ctl.sink().iter().map(|e| e.kind.label()).collect();
    assert_eq!(
        kinds,
        vec![
            "oom_trap",
            "grant_denied",
            "reclaim_sweep",
            "reclaim_applied",
            "grant_issued"
        ]
    );
    // The grant spent ψ + part of the old headroom and nothing more:
    // allocated moved by (grant 40 MiB) − (ψ 36 MiB) = +4 MiB.
    assert_eq!(
        ctl.allocator().app_pool(APP).unwrap().allocated_mem_bytes(),
        192 * MIB + 40 * MIB - psi
    );
}
