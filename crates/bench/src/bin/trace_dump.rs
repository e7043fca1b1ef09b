//! Decision-trace exposition (§VI observability).
//!
//! Replays a fixed-seed control-plane scenario — 4 nodes, 6 apps × 2
//! containers, bursty CPU demand, a memory ramp that OOM-traps, 5%
//! telemetry loss, duplicates, delay spikes, and a 10–15 s partition of
//! node 1 — with every component recording into [`TraceRecorder`]s, and
//! writes three artifacts under `target/escra-results/`:
//!
//! * `trace_dump.trace` — the merged, canonically ordered decision
//!   trace (one line per event);
//! * `trace_dump.prom`  — Prometheus text exposition of the event
//!   counters and the trap→grant latency summary;
//! * `trace_dump.json`  — the same numbers as an [`ExpoSnapshot`].
//!
//! The recorders' event streams are merged on `(time, actor)` rather
//! than recorder order, and the driver applies each round's actions in
//! a canonical per-container order, so the `.trace` file is a pure
//! function of the seed.

use escra_bench::SEED;
use escra_cfs::MIB;
use escra_cluster::{AppId, Cluster, ContainerId, ContainerSpec, NodeId, NodeSpec};
use escra_core::{
    Action, Agent, AgentReport, Controller, CpuStatsEntry, EscraConfig, ReclaimEntry, ToAgent,
    ToController, TraceRecorder,
};
use escra_metrics::trace::{kind_counts, merge_events, render_merged};
use escra_metrics::{
    grant_latency_histogram, ExpoSnapshot, HistogramSummary, NamedCounter, PromText,
};
use escra_net::{Addr, FaultDecision, FaultInjector, FaultPlan};
use escra_simcore::time::{SimDuration, SimTime};

const NODES: usize = 4;
const APPS: u64 = 6;
const PER_APP: u64 = 2;
const ROUNDS: u64 = 300;
const PERIOD: SimDuration = SimDuration::from_millis(100);
/// Containers cold-start for 2 s; drive telemetry only once running.
const START: SimTime = SimTime::from_millis(2_500);
/// Big enough that no recorder wraps (a wrapped ring drops the oldest
/// events, so the dump would no longer be the whole scenario).
const TRACE_CAP: usize = 65_536;

/// Recorder classes: the Controller / per-node Agents / the fault
/// injector. Classes keep independent seq streams from ever being
/// compared against each other in the merge.
const CLASS_CONTROLLER: u16 = 0;
const CLASS_AGENT: u16 = 1;
const CLASS_FAULT: u16 = 2;

fn controller_addr() -> Addr {
    Addr::from_raw(0)
}

fn node_addr(node: NodeId) -> Addr {
    Addr::from_raw(1 + node.as_u64())
}

fn recorder(class: u16) -> TraceRecorder {
    TraceRecorder::with_capacity(TRACE_CAP).with_class(class)
}

/// Canonical application order for one round: stable sort keeps each
/// container's commands in emission order (the Agents' staleness
/// guarantee) while fixing the cross-container order.
fn action_key(a: &Action) -> (u64, u64) {
    match a {
        Action::Agent { node, cmd } => match cmd {
            ToAgent::SetCpuQuota { container, .. } | ToAgent::SetMemLimit { container, .. } => {
                (0, container.as_u64())
            }
            ToAgent::ReclaimMemory { .. } => (1, node.as_u64()),
        },
        Action::KillContainer(c) => (0, c.as_u64()),
    }
}

/// Identical cluster-wide sweep commands can appear twice in one round
/// (once for the periodic schedule, once for an OOM-triggered launch);
/// the Agents must run each sweep once.
fn dedup_reclaims(actions: &mut Vec<Action>) {
    let mut seen: Vec<(NodeId, u64)> = Vec::new();
    actions.retain(|a| {
        if let Action::Agent {
            node,
            cmd: ToAgent::ReclaimMemory { delta_bytes },
        } = a
        {
            if seen.contains(&(*node, *delta_bytes)) {
                return false;
            }
            seen.push((*node, *delta_bytes));
        }
        true
    });
}

#[allow(clippy::too_many_lines)] // one linear scenario script
fn main() {
    let cfg = EscraConfig::default();

    // --- Deployment: 4 nodes, 6 apps x 2 containers. ------------------
    let mut cluster = Cluster::new(vec![
        NodeSpec {
            cores: 16,
            mem_bytes: 8 << 30,
        };
        NODES
    ]);
    let mut controller = Controller::with_sink(cfg, recorder(CLASS_CONTROLLER));
    // The Controller's output; drained into `pending` once per round.
    let mut actions: Vec<Action> = Vec::new();
    let mut containers: Vec<ContainerId> = Vec::new();
    for a in 0..APPS {
        let app = AppId::new(a);
        controller.register_app(app, 4.0, 1024 * MIB);
        for i in 0..PER_APP {
            let spec = ContainerSpec::new(format!("a{a}c{i}"), app)
                .with_base_mem(48 * MIB)
                .with_cpu_limit(2.0)
                .with_mem_limit(96 * MIB);
            let id = cluster.deploy(spec, SimTime::ZERO).expect("deploy");
            let node = cluster.container(id).expect("deployed").node();
            actions.extend(
                controller
                    .register_container(id, app, node, 2.0, 96 * MIB)
                    .expect("register"),
            );
            containers.push(id);
        }
    }
    let mut agents: Vec<Agent> = cluster.nodes().iter().map(|n| Agent::new(n.id())).collect();
    let mut agent_recs: Vec<TraceRecorder> = (0..NODES).map(|_| recorder(CLASS_AGENT)).collect();

    // Bootstrap limits apply out-of-band (deploy-time TCP, no faults).
    let mut pending: Vec<Action> = std::mem::take(&mut actions);
    pending.sort_by_key(action_key);
    for a in pending.drain(..) {
        if let Action::Agent { node, cmd } = a {
            let idx = node.as_u64() as usize;
            agents[idx].apply_traced(SimTime::ZERO, &mut cluster, cmd, &mut agent_recs[idx]);
        }
    }

    // --- Fault model: loss + duplication + spikes + a partition of
    // node 1 from 10 s to 15 s. -----------------------------------------
    let plan = FaultPlan::none()
        .with_loss(0.05)
        .with_duplicates(0.03)
        .with_delay_spikes(0.02, SimDuration::from_millis(200))
        .with_partition(
            controller_addr(),
            node_addr(NodeId::new(1)),
            SimTime::from_secs(10),
            SimTime::from_secs(15),
        );
    let mut faults = FaultInjector::new(plan, SEED);
    let mut fault_rec = recorder(CLASS_FAULT);

    cluster.tick(START);
    for c in &containers {
        assert!(
            cluster.container(*c).is_some_and(|c| c.is_running()),
            "scenario assumes every container is running after cold start"
        );
    }

    // --- The measured run. ---------------------------------------------
    let period_us = PERIOD.as_micros() as f64;
    let mut inbox: Vec<ToController> = Vec::new();
    for round in 0..ROUNDS {
        let now = START + PERIOD * round;
        cluster.tick(now);

        // CPU demand: each container alternates a heavy burst (throttles
        // at its quota, driving scale-ups) with a quiet phase (unused
        // runtime, driving scale-downs), phase-shifted per container.
        let mut batches: Vec<Vec<CpuStatsEntry>> = vec![Vec::new(); NODES];
        for (idx, cid) in containers.iter().enumerate() {
            let Some(c) = cluster.container(*cid) else {
                continue;
            };
            if !c.is_running() {
                continue;
            }
            let node = c.node();
            let phase = (round + idx as u64 * 5) % 40;
            let want_us = if phase < 22 {
                2.6 * period_us
            } else {
                0.15 * period_us
            };
            let c = cluster.container_mut(*cid).expect("running container");
            let cap = c.cpu.runtime_remaining_us();
            c.cpu.consume(want_us.min(cap));
            if want_us > cap {
                c.cpu.mark_throttled();
            }
            let stats = c.cpu.end_period();
            batches[node.as_u64() as usize].push(CpuStatsEntry {
                container: *cid,
                stats,
            });
        }

        // Memory demand ramps per container; a charge over the limit
        // traps as an OOM event instead of killing (§IV-B).
        for (idx, cid) in containers.iter().enumerate() {
            if !cluster.container(*cid).is_some_and(|c| c.is_running()) {
                continue;
            }
            let target = 48 * MIB + ((round * 3 + idx as u64 * 17) % 80) * MIB;
            let c = cluster.container_mut(*cid).expect("running container");
            let usage = c.mem.usage_bytes();
            if target <= usage {
                c.mem.uncharge(usage - target);
            } else if let escra_cfs::ChargeOutcome::WouldOom { shortfall_bytes } =
                c.mem.try_charge(target - usage)
            {
                inbox.push(ToController::OomEvent {
                    container: *cid,
                    shortfall_bytes,
                    current_limit_bytes: c.mem.limit_bytes(),
                });
            }
        }

        // Telemetry batches ride node -> controller through the faulty
        // fabric; a dropped datagram loses the whole node's period.
        // Spiked messages are still delivered this round; the spike is
        // traced.
        for (n, entries) in batches.into_iter().enumerate() {
            if entries.is_empty() {
                continue;
            }
            let node = NodeId::new(n as u64);
            let msg = ToController::CpuStatsBatch { node, entries };
            match faults.decide_traced(now, node_addr(node), controller_addr(), &mut fault_rec) {
                FaultDecision::Drop => {}
                FaultDecision::Deliver { copies, .. } => {
                    for _ in 0..copies {
                        inbox.push(msg.clone());
                    }
                }
            }
        }
        // OOM events were queued before the fault fabric; route them now
        // (their node link may be partitioned too).
        let ooms = std::mem::take(&mut inbox);
        for msg in ooms {
            match &msg {
                ToController::OomEvent { container, .. } => {
                    let node = cluster.container(*container).expect("known").node();
                    match faults.decide_traced(
                        now,
                        node_addr(node),
                        controller_addr(),
                        &mut fault_rec,
                    ) {
                        FaultDecision::Drop => {}
                        FaultDecision::Deliver { copies, .. } => {
                            for _ in 0..copies {
                                controller.handle_into(now, msg.clone(), &mut actions);
                            }
                        }
                    }
                }
                _ => controller.handle_into(now, msg, &mut actions),
            }
        }
        controller.tick_into(now, &mut actions);

        // Apply the round's commands in canonical order; acks and
        // reclamation reports return through the fabric.
        pending.append(&mut actions);
        dedup_reclaims(&mut pending);
        pending.sort_by_key(action_key);
        let mut reclaim_entries: Vec<ReclaimEntry> = Vec::new();
        let mut report_arrived = false;
        for a in pending.drain(..) {
            match a {
                Action::Agent { node, cmd } => {
                    let nidx = node.as_u64() as usize;
                    match faults.decide_traced(
                        now,
                        controller_addr(),
                        node_addr(node),
                        &mut fault_rec,
                    ) {
                        FaultDecision::Drop => {}
                        FaultDecision::Deliver { copies, .. } => {
                            for _ in 0..copies {
                                let report = agents[nidx].apply_traced(
                                    now,
                                    &mut cluster,
                                    cmd,
                                    &mut agent_recs[nidx],
                                );
                                match report {
                                    AgentReport::Applied => {
                                        if let ToAgent::SetMemLimit { container, seq, .. } = cmd {
                                            // The ack is the RPC response;
                                            // it rides the same faulty link.
                                            if faults.decide_traced(
                                                now,
                                                node_addr(node),
                                                controller_addr(),
                                                &mut fault_rec,
                                            ) != FaultDecision::Drop
                                            {
                                                controller.handle_into(
                                                    now,
                                                    ToController::LimitAck { container, seq },
                                                    &mut actions,
                                                );
                                            }
                                        }
                                    }
                                    AgentReport::Reclaimed(entries) => {
                                        if faults.decide_traced(
                                            now,
                                            node_addr(node),
                                            controller_addr(),
                                            &mut fault_rec,
                                        ) != FaultDecision::Drop
                                        {
                                            report_arrived = true;
                                            reclaim_entries.extend(entries);
                                        }
                                    }
                                    AgentReport::Stale => {}
                                }
                            }
                        }
                    }
                }
                Action::KillContainer(cid) => {
                    let _ = cluster.oom_kill(cid, now);
                }
            }
        }
        if report_arrived {
            actions.extend(controller.on_reclaim_report(now, &reclaim_entries));
        }
    }

    // --- Merge, render, expose. ----------------------------------------
    let mut recorders = vec![controller.replace_sink(TraceRecorder::default())];
    recorders.append(&mut agent_recs);
    recorders.push(fault_rec);
    let refs: Vec<&TraceRecorder> = recorders.iter().collect();
    let dropped: u64 = recorders.iter().map(|r| r.dropped()).sum();
    let emitted: u64 = recorders.iter().map(|r| r.emitted()).sum();
    assert_eq!(dropped, 0, "TRACE_CAP must hold the whole scenario");

    let trace = render_merged(&refs);
    let events = merge_events(&refs);
    let counts = kind_counts(&events);
    assert!(
        counts.iter().any(|(l, _)| *l == "grant_issued"),
        "scenario must exercise the OOM-grant path"
    );
    let latency = grant_latency_histogram(&events);

    let mut prom = PromText::new();
    for (label, n) in &counts {
        prom.counter(
            &format!("escra_trace_{label}_total"),
            "Trace events of this kind in the replay.",
            *n,
        );
    }
    prom.summary(
        "escra_grant_latency_ms",
        "OOM trap to grant decision latency.",
        &latency,
    );

    let snapshot = ExpoSnapshot {
        counters: counts
            .iter()
            .map(|(l, n)| NamedCounter::new(format!("trace_{l}"), *n))
            .collect(),
        histograms: vec![HistogramSummary::of("grant_latency_ms", &latency)],
        trace_events: emitted,
        trace_dropped: dropped,
    };

    let stem = "trace_dump";
    let dir = std::path::Path::new("target").join("escra-results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    std::fs::write(dir.join(format!("{stem}.trace")), &trace).expect("write trace");
    std::fs::write(dir.join(format!("{stem}.prom")), prom.finish()).expect("write prom");
    std::fs::write(dir.join(format!("{stem}.json")), snapshot.to_json()).expect("write json");
    eprintln!(
        "{stem}: {} events ({} emitted), wrote {}/{{{stem}.trace,.prom,.json}}",
        trace.lines().count(),
        emitted,
        dir.display()
    );
}
