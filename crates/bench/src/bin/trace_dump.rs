//! Decision-trace exposition (§VI observability).
//!
//! Replays a fixed-seed control-plane scenario — 4 nodes, 6 apps × 2
//! containers, bursty CPU demand, a memory ramp that OOM-traps, 5%
//! telemetry loss, duplicates, delay spikes, and a 10–15 s partition of
//! node 1 — with every component recording into [`TraceRecorder`]s, and
//! writes three artifacts under `target/escra-results/`:
//!
//! * `<stem>.trace` — the merged, canonically ordered decision trace
//!   (one line per event);
//! * `<stem>.prom`  — Prometheus text exposition of the event counters,
//!   trap→grant latency summary, and shard queue depths;
//! * `<stem>.json`  — the same numbers as an [`ExpoSnapshot`].
//!
//! Run serial (default) or over N app-affine Controller shards
//! (`--threads N`; the shards run on the caller's thread). The `.trace`
//! file is **byte-identical** for every shard count: per-actor event
//! streams are merged on `(time, actor)` rather than recorder order,
//! shard-channel events are excluded from the comparable dump, and the
//! driver applies drained actions in a canonical per-container order.
//! `scripts/check.sh` holds that property by diffing a serial run
//! against `--threads 4`.

use escra_bench::SEED;
use escra_cfs::MIB;
use escra_cluster::{AppId, Cluster, ContainerId, ContainerSpec, NodeId, NodeSpec};
use escra_core::{
    Action, Agent, AgentReport, Controller, CpuStatsEntry, EscraConfig, ReclaimEntry,
    ShardedController, ToAgent, ToController, TraceRecorder,
};
use escra_metrics::trace::{kind_counts, merge_events, render_merged, TraceEvent};
use escra_metrics::{
    grant_latency_histogram, ExpoSnapshot, HistogramSummary, NamedCounter, PromText, ShardDepth,
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
/// Big enough that no recorder wraps (wraparound would break identity).
const TRACE_CAP: usize = 65_536;

/// Recorder classes: controller-side (serial Controller, shard
/// Controllers, and the sharded router) / per-node Agents / the fault
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

/// The control plane under trace: one sequential Controller or the
/// app-sharded front-end. Decisions (and therefore the comparable trace)
/// are identical — that is the property this bin exists to demonstrate.
#[allow(clippy::large_enum_variant)] // one Plane per run; size is irrelevant
enum Plane {
    Serial {
        controller: Controller<TraceRecorder>,
        actions: Vec<Action>,
    },
    Sharded(ShardedController<TraceRecorder>),
}

impl Plane {
    fn new(cfg: EscraConfig, threads: usize) -> Self {
        if threads == 0 {
            Plane::Serial {
                controller: Controller::with_sink(cfg, recorder(CLASS_CONTROLLER)),
                actions: Vec::new(),
            }
        } else {
            Plane::Sharded(ShardedController::with_sinks(cfg, threads, |_| {
                recorder(CLASS_CONTROLLER)
            }))
        }
    }

    fn register_app(&mut self, app: AppId, cpu: f64, mem: u64) {
        match self {
            Plane::Serial { controller, .. } => controller.register_app(app, cpu, mem),
            Plane::Sharded(s) => s.register_app(app, cpu, mem),
        }
    }

    fn register_container(&mut self, c: ContainerId, app: AppId, node: NodeId, cpu: f64, mem: u64) {
        match self {
            Plane::Serial {
                controller,
                actions,
            } => actions.extend(
                controller
                    .register_container(c, app, node, cpu, mem)
                    .expect("register"),
            ),
            Plane::Sharded(s) => s
                .register_container(c, app, node, cpu, mem)
                .expect("register"),
        }
    }

    fn handle(&mut self, now: SimTime, msg: ToController) {
        match self {
            Plane::Serial {
                controller,
                actions,
            } => controller.handle_into(now, msg, actions),
            Plane::Sharded(s) => s.handle(now, msg),
        }
    }

    fn tick(&mut self, now: SimTime) {
        match self {
            Plane::Serial {
                controller,
                actions,
            } => actions.extend(controller.tick(now)),
            Plane::Sharded(s) => s.tick(now),
        }
    }

    fn on_reclaim_report(&mut self, now: SimTime, entries: &[ReclaimEntry]) {
        match self {
            Plane::Serial {
                controller,
                actions,
            } => actions.extend(controller.on_reclaim_report(now, entries)),
            Plane::Sharded(s) => s.on_reclaim_report(now, entries),
        }
    }

    fn drain_into(&mut self, out: &mut Vec<Action>) {
        match self {
            Plane::Serial { actions, .. } => out.append(actions),
            Plane::Sharded(s) => s.drain_actions_into(out),
        }
    }

    fn queue_depths(&self) -> Vec<u32> {
        match self {
            Plane::Serial { .. } => Vec::new(),
            Plane::Sharded(s) => s.queue_depths().to_vec(),
        }
    }

    fn finish(self) -> Vec<TraceRecorder> {
        match self {
            Plane::Serial { mut controller, .. } => {
                vec![controller.replace_sink(TraceRecorder::default())]
            }
            Plane::Sharded(mut s) => s.take_sinks(),
        }
    }
}

/// Canonical application order for one drain: stable sort keeps each
/// container's commands in emission order (the Agents' staleness
/// guarantee) while fixing the cross-container order — the sharded
/// drain concatenates per-shard buffers, so without this the serial and
/// sharded runs would apply the same multiset of commands in different
/// interleavings.
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

/// Identical cluster-wide sweep commands can appear once per shard (and,
/// in a serial round, once for the periodic schedule plus once for an
/// OOM-triggered launch); the Agents must run each sweep once.
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

struct Args {
    threads: usize,
}

fn parse_args() -> Args {
    let mut args = Args { threads: 0 };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => {
                args.threads = it
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| panic!("--threads needs a positive integer"));
            }
            other => panic!("unknown flag {other:?} (expected --threads N)"),
        }
    }
    args
}

#[allow(clippy::too_many_lines)] // one linear scenario script
fn main() {
    let args = parse_args();
    let cfg = EscraConfig::default();

    // --- Deployment: 4 nodes, 6 apps x 2 containers. ------------------
    let mut cluster = Cluster::new(vec![
        NodeSpec {
            cores: 16,
            mem_bytes: 8 << 30,
        };
        NODES
    ]);
    let mut plane = Plane::new(cfg.clone(), args.threads);
    let mut containers: Vec<ContainerId> = Vec::new();
    for a in 0..APPS {
        let app = AppId::new(a);
        plane.register_app(app, 4.0, 1024 * MIB);
        for i in 0..PER_APP {
            let spec = ContainerSpec::new(format!("a{a}c{i}"), app)
                .with_base_mem(48 * MIB)
                .with_cpu_limit(2.0)
                .with_mem_limit(96 * MIB);
            let id = cluster.deploy(spec, SimTime::ZERO).expect("deploy");
            let node = cluster.container(id).expect("deployed").node();
            plane.register_container(id, app, node, 2.0, 96 * MIB);
            containers.push(id);
        }
    }
    let mut agents: Vec<Agent> = cluster.nodes().iter().map(|n| Agent::new(n.id())).collect();
    let mut agent_recs: Vec<TraceRecorder> = (0..NODES).map(|_| recorder(CLASS_AGENT)).collect();

    // Bootstrap limits apply out-of-band (deploy-time TCP, no faults).
    let mut pending: Vec<Action> = Vec::new();
    plane.drain_into(&mut pending);
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
        // Spiked messages are still delivered this round — the spike is
        // traced, and same-round delivery keeps the replay independent
        // of the shard count.
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
                ToController::CpuStatsBatch { .. } => plane.handle(now, msg),
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
                                plane.handle(now, msg.clone());
                            }
                        }
                    }
                }
                _ => plane.handle(now, msg),
            }
        }
        plane.tick(now);

        // Apply the round's commands in canonical order; acks and
        // reclamation reports return through the fabric.
        plane.drain_into(&mut pending);
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
                                                plane.handle(
                                                    now,
                                                    ToController::LimitAck { container, seq },
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
            plane.on_reclaim_report(now, &reclaim_entries);
        }
    }

    // --- Merge, render, expose. ----------------------------------------
    let depths = plane.queue_depths();
    let mut recorders = plane.finish();
    recorders.append(&mut agent_recs);
    recorders.push(fault_rec);
    let refs: Vec<&TraceRecorder> = recorders.iter().collect();
    let dropped: u64 = recorders.iter().map(|r| r.dropped()).sum();
    let emitted: u64 = recorders.iter().map(|r| r.emitted()).sum();
    assert_eq!(dropped, 0, "TRACE_CAP must hold the whole scenario");

    let trace = render_merged(&refs);
    let comparable: Vec<TraceEvent> = merge_events(&refs)
        .into_iter()
        .filter(|e| !e.kind.is_shard_channel())
        .collect();
    let counts = kind_counts(&comparable);
    assert!(
        counts.iter().any(|(l, _)| *l == "grant_issued"),
        "scenario must exercise the OOM-grant path"
    );
    let latency = grant_latency_histogram(&comparable);

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
    prom.labeled_gauge(
        "escra_shard_queue_depth",
        "Undrained work messages per shard at run end.",
        "shard",
        &depths
            .iter()
            .enumerate()
            .map(|(s, d)| (s.to_string(), f64::from(*d)))
            .collect::<Vec<_>>(),
    );

    let snapshot = ExpoSnapshot {
        counters: counts
            .iter()
            .map(|(l, n)| NamedCounter::new(format!("trace_{l}"), *n))
            .collect(),
        shard_depths: depths
            .iter()
            .enumerate()
            .map(|(s, d)| ShardDepth {
                shard: s as u32,
                depth: *d,
            })
            .collect(),
        histograms: vec![HistogramSummary::of("grant_latency_ms", &latency)],
        trace_events: emitted,
        trace_dropped: dropped,
    };

    let stem = if args.threads == 0 {
        "trace_dump_serial".to_string()
    } else {
        format!("trace_dump_t{}", args.threads)
    };
    let dir = std::path::Path::new("target").join("escra-results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    std::fs::write(dir.join(format!("{stem}.trace")), &trace).expect("write trace");
    std::fs::write(dir.join(format!("{stem}.prom")), prom.finish()).expect("write prom");
    std::fs::write(dir.join(format!("{stem}.json")), snapshot.to_json()).expect("write json");
    eprintln!(
        "{stem}: {} comparable events ({} lines, {} emitted incl. shard-channel), wrote {}/{{{stem}.trace,.prom,.json}}",
        comparable.len(),
        trace.lines().count(),
        emitted,
        dir.display()
    );
}
