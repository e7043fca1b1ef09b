//! Controller decisions are invariant under app partition: N plain
//! [`Controller`]s, each owning the applications `app % N`, make the
//! same decisions as one Controller owning them all. This is the
//! argument behind the §VI-I per-shard capacity model
//! (`escra_core::sharded`): every Distributed Container pool is scoped
//! to one application, so an app-affine split changes nothing an Agent
//! or a pool can observe.
//!
//! The partitioned side gets every message kind — telemetry, OOM
//! events, acks, ticks and reclamation reports — routed to each
//! container's home partition. Ticks and reclamation reports reach every
//! partition, and every partition is told about every node
//! ([`Controller::note_node`]), so a sweep launched by any one of them
//! covers the whole cluster.
//!
//! ## Canonicalization
//!
//! The two sides emit the same *logical* command stream, but two
//! representational details legitimately differ and are normalised
//! before comparison:
//!
//! * **Sequence numbers.** Each partition stamps its own monotonic seq,
//!   so global numbering differs. Agents filter staleness per container,
//!   and every container's commands come from one home partition in
//!   emission order — so seqs are replaced with the command's
//!   *occurrence rank* per `(container, resource)` in emission order,
//!   which is representation-independent.
//! * **Cluster-wide reclamation sweeps.** Every partition launches the
//!   periodic sweep on the same schedule, and one Controller may itself
//!   emit the same `(node, δ)` command twice in one round (periodic +
//!   OOM-triggered). Both sides are therefore compared on their
//!   per-round *sets* of `(node, δ)`.
//!
//! ## Content-keyed faults
//!
//! A fault injector drawing per command in global stream order would
//! assign different fates to the same logical command on the two sides
//! (whose global orders differ). Faults here are instead
//! *content-keyed*: a command's fate is a hash of `(container, kind,
//! rank, fault seed)`, so equal canonical streams get equal fates —
//! losses included — without coupling to emission order. Ack losses are
//! keyed the same way.

use escra::cluster::{AppId, ContainerId, NodeId};
use escra::core::controller::ControllerStats;
use escra::core::telemetry::ToController;
use escra::core::{Action, Controller, CpuStatsEntry, EscraConfig, ToAgent};
use escra::simcore::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Containers in the scenario (two per app — sibling pool interactions
/// must partition correctly).
const N_CONT: u64 = 8;
/// Applications; container `i` belongs to app `i / 2`.
const N_APPS: u64 = 4;
/// Nodes; container `i` runs on node `i % 3`.
const N_NODES: u64 = 3;

fn app_of(i: u64) -> AppId {
    AppId::new(i / 2)
}

fn node_of(i: u64) -> NodeId {
    NodeId::new(i % N_NODES)
}

/// Content-keyed fault decision in `[0, 1)`: depends only on the
/// command's identity, never on emission order.
fn fate(seed: u64, a: u64, kind: u64, b: u64) -> f64 {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(a.rotate_left(17))
        .wrapping_add(kind.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(b.rotate_left(43));
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Canonical command: `(kind, node, container, value, rank)` with
/// seq replaced by per-(container, kind) occurrence rank. Reclaims use
/// rank 0 and are deduplicated per round before canonicalization.
type Canon = (u8, u64, u64, u64, u64);

const KIND_CPU: u8 = 0;
const KIND_MEM: u8 = 1;
const KIND_RECLAIM: u8 = 2;
const KIND_KILL: u8 = 3;
/// Fate-key namespace for ack losses (not a command kind).
const KIND_ACK: u64 = 10;

/// One side's delivery pass over a chunk of raw actions: builds the
/// canonical stream, applies content-keyed losses to the shadow Agent
/// world, and collects (side-specific) acks.
#[allow(clippy::too_many_arguments)]
fn process_chunk(
    actions: &[Action],
    ranks: &mut BTreeMap<(u64, u8), u64>,
    limits: &mut BTreeMap<u64, u64>,
    acks: &mut Vec<(u64, u64, u64)>,
    round_reclaims: &mut Vec<(u64, u64)>,
    canon: &mut Vec<Canon>,
    fault_seed: u64,
    loss: f64,
    ack_loss: f64,
) {
    let bump = |ranks: &mut BTreeMap<(u64, u8), u64>, c: u64, k: u8| -> u64 {
        let r = ranks.entry((c, k)).or_insert(0);
        let rank = *r;
        *r += 1;
        rank
    };
    for a in actions {
        match *a {
            Action::Agent {
                node,
                cmd:
                    ToAgent::SetCpuQuota {
                        container,
                        quota_cores,
                        ..
                    },
            } => {
                let c = container.as_u64();
                let rank = bump(ranks, c, KIND_CPU);
                canon.push((KIND_CPU, node.as_u64(), c, quota_cores.to_bits(), rank));
                // CPU quotas have no shadow state to update.
            }
            Action::Agent {
                node,
                cmd:
                    ToAgent::SetMemLimit {
                        container,
                        limit_bytes,
                        seq,
                    },
            } => {
                let c = container.as_u64();
                let rank = bump(ranks, c, KIND_MEM);
                canon.push((KIND_MEM, node.as_u64(), c, limit_bytes, rank));
                if fate(fault_seed, c, KIND_MEM as u64, rank) >= loss {
                    limits.insert(c, limit_bytes);
                    if fate(fault_seed, c, KIND_ACK, rank) >= ack_loss {
                        acks.push((c, rank, seq));
                    }
                }
            }
            Action::Agent {
                node,
                cmd: ToAgent::ReclaimMemory { delta_bytes },
            } => {
                let key = (node.as_u64(), delta_bytes);
                if !round_reclaims.contains(&key) {
                    round_reclaims.push(key);
                    canon.push((KIND_RECLAIM, key.0, 0, key.1, 0));
                }
            }
            Action::KillContainer(container) => {
                let c = container.as_u64();
                let rank = bump(ranks, c, KIND_KILL);
                canon.push((KIND_KILL, 0, c, 0, rank));
            }
        }
    }
}

/// Summed stats with the one documented divergence masked: each
/// partition runs its own sweep schedule, so `reclaim_sweeps` counts per
/// partition.
fn comparable(mut stats: ControllerStats) -> ControllerStats {
    stats.reclaim_sweeps = 0;
    stats
}

/// Side-specific ack feedback in canonical (container, rank) order —
/// each side acks its *own* seqs, but for the same logical grants.
fn feedback_msgs(acks: &mut Vec<(u64, u64, u64)>) -> Vec<ToController> {
    acks.sort_unstable();
    acks.drain(..)
        .map(|(c, _rank, seq)| ToController::LimitAck {
            container: ContainerId::new(c),
            seq,
        })
        .collect()
}

proptest! {
    /// For N ∈ {1, 2, 4, 7} app partitions, the partitioned Controllers
    /// and one Controller emit the same canonical action sets, the same
    /// summed stats (modulo `reclaim_sweeps`), and bit-identical pool
    /// books — for arbitrary telemetry streams, OOM interleavings, and
    /// content-keyed fault plans dropping commands and acks.
    #[test]
    fn controller_decisions_are_invariant_under_app_partition(
        fault_seed in any::<u64>(),
        loss in 0.0f64..0.7,
        ack_loss in 0.0f64..0.5,
        rounds in proptest::collection::vec(
            (any::<u8>(), any::<u64>(), any::<u8>(), any::<bool>(), 0u64..N_CONT),
            1..80,
        ),
    ) {
        for n in [1usize, 2, 4, 7] {
            let home = |i: u64| (app_of(i).as_u64() % n as u64) as usize;
            let mut seq = Controller::new(EscraConfig::default());
            let mut parts: Vec<Controller> =
                (0..n).map(|_| Controller::new(EscraConfig::default())).collect();
            for part in &mut parts {
                for node in 0..N_NODES {
                    part.note_node(NodeId::new(node));
                }
            }
            // Memory pools from 2 to 8 grants of headroom, so OOMs are
            // granted early and denied (launching a sweep) later.
            for a in 0..N_APPS {
                let mem = (256 + 64 * (a + 1)) << 20;
                seq.register_app(AppId::new(a), 6.0, mem);
                parts[a as usize % n].register_app(AppId::new(a), 6.0, mem);
            }
            // The registration bootstrap is identical on both sides;
            // neither side delivers it.
            for i in 0..N_CONT {
                let c = ContainerId::new(i);
                seq.register_container(c, app_of(i), node_of(i), 1.5, 128 << 20)
                    .expect("register");
                parts[home(i)]
                    .register_container(c, app_of(i), node_of(i), 1.5, 128 << 20)
                    .expect("register");
            }

            // Shadow Agent world: applied mem limits (canonical values,
            // asserted equal across sides every round) + per-side rank
            // counters and ack queues.
            let mut limits: BTreeMap<u64, u64> =
                (0..N_CONT).map(|i| (i, 128u64 << 20)).collect();
            let mut ranks_a: BTreeMap<(u64, u8), u64> = BTreeMap::new();
            let mut ranks_b: BTreeMap<(u64, u8), u64> = BTreeMap::new();
            let mut acks_a: Vec<(u64, u64, u64)> = Vec::new();
            let mut acks_b: Vec<(u64, u64, u64)> = Vec::new();
            let mut feedback_a: Vec<ToController> = Vec::new();
            let mut feedback_b: Vec<ToController> = Vec::new();

            let mut now = SimTime::ZERO;
            for &(mask, usage_seed, throttle_mask, oom, oom_cid) in &rounds {
                now += SimDuration::from_millis(100);
                let mut acts_a: Vec<Action> = Vec::new();
                let mut acts_b: Vec<Action> = Vec::new();

                // Per-node telemetry batches: one `CpuStatsBatch` to the
                // single Controller, and each partition the sub-batch of
                // its own containers, in the same entry order.
                let mut batches: Vec<Vec<CpuStatsEntry>> =
                    (0..N_NODES).map(|_| Vec::new()).collect();
                for i in 0..N_CONT {
                    if mask & (1 << i) == 0 {
                        continue;
                    }
                    let container = ContainerId::new(i);
                    let qa = seq.allocator().quota_of(container).expect("tracked");
                    let qb = parts[home(i)].allocator().quota_of(container).expect("tracked");
                    prop_assert_eq!(qa.to_bits(), qb.to_bits(), "quota divergence");
                    let frac = ((usage_seed >> (8 * i)) & 0xFF) as f64 / 255.0;
                    let usage = qa * frac;
                    let stats = escra::cfs::CpuPeriodStats {
                        quota_cores: qa,
                        usage_us: usage * 100_000.0,
                        unused_runtime_us: (qa - usage) * 100_000.0,
                        throttled: throttle_mask & (1 << i) != 0,
                    };
                    batches[(i % N_NODES) as usize].push(CpuStatsEntry { container, stats });
                }
                for (node, entries) in batches.iter().enumerate() {
                    if entries.is_empty() {
                        continue;
                    }
                    let node = NodeId::new(node as u64);
                    seq.handle_into(
                        now,
                        ToController::CpuStatsBatch { node, entries: entries.clone() },
                        &mut acts_a,
                    );
                    for (p, part) in parts.iter_mut().enumerate() {
                        let sub: Vec<CpuStatsEntry> = entries
                            .iter()
                            .filter(|e| home(e.container.as_u64()) == p)
                            .copied()
                            .collect();
                        if !sub.is_empty() {
                            part.handle_into(
                                now,
                                ToController::CpuStatsBatch { node, entries: sub },
                                &mut acts_b,
                            );
                        }
                    }
                }
                if oom {
                    let c = oom_cid % N_CONT;
                    let msg = ToController::OomEvent {
                        container: ContainerId::new(c),
                        shortfall_bytes: 8 << 20,
                        current_limit_bytes: limits[&c],
                    };
                    seq.handle_into(now, msg.clone(), &mut acts_a);
                    parts[home(c)].handle_into(now, msg, &mut acts_b);
                }
                for msg in feedback_a.drain(..) {
                    seq.handle_into(now, msg, &mut acts_a);
                }
                for msg in feedback_b.drain(..) {
                    let ToController::LimitAck { container, .. } = msg else {
                        unreachable!("feedback is acks only");
                    };
                    parts[home(container.as_u64())].handle_into(now, msg, &mut acts_b);
                }
                seq.tick_into(now, &mut acts_a);
                for part in &mut parts {
                    part.tick_into(now, &mut acts_b);
                }

                // Deliver each side through the content-keyed fabric into
                // its own clone of the shadow world.
                let mut canon_a: Vec<Canon> = Vec::new();
                let mut canon_b: Vec<Canon> = Vec::new();
                let mut limits_a = limits.clone();
                let mut limits_b = limits.clone();
                let mut reclaims_a: Vec<(u64, u64)> = Vec::new();
                let mut reclaims_b: Vec<(u64, u64)> = Vec::new();
                process_chunk(
                    &acts_a, &mut ranks_a, &mut limits_a, &mut acks_a,
                    &mut reclaims_a, &mut canon_a, fault_seed, loss, ack_loss,
                );
                process_chunk(
                    &acts_b, &mut ranks_b, &mut limits_b, &mut acks_b,
                    &mut reclaims_b, &mut canon_b, fault_seed, loss, ack_loss,
                );

                // A sweep command that survives the fabric triggers the
                // Agent's report; an empty report still retries pending
                // OOMs, so it must reach every partition.
                let mut sorted_a = reclaims_a.clone();
                let mut sorted_b = reclaims_b.clone();
                sorted_a.sort_unstable();
                sorted_b.sort_unstable();
                prop_assert_eq!(&sorted_a, &sorted_b, "reclaim divergence (n={})", n);
                let saw_reclaim = sorted_a
                    .iter()
                    .any(|&(node, delta)| fate(fault_seed, node, KIND_RECLAIM as u64, delta) >= loss);
                if saw_reclaim {
                    let ra = seq.on_reclaim_report(now, &[]);
                    let rb: Vec<Action> = parts
                        .iter_mut()
                        .flat_map(|part| part.on_reclaim_report(now, &[]))
                        .collect();
                    process_chunk(
                        &ra, &mut ranks_a, &mut limits_a, &mut acks_a,
                        &mut reclaims_a, &mut canon_a, fault_seed, loss, ack_loss,
                    );
                    process_chunk(
                        &rb, &mut ranks_b, &mut limits_b, &mut acks_b,
                        &mut reclaims_b, &mut canon_b, fault_seed, loss, ack_loss,
                    );
                }

                canon_a.sort_unstable();
                canon_b.sort_unstable();
                prop_assert_eq!(&canon_a, &canon_b, "canonical action divergence (n={})", n);
                prop_assert_eq!(&limits_a, &limits_b, "shadow limit divergence");
                limits = limits_a;
                feedback_a = feedback_msgs(&mut acks_a);
                feedback_b = feedback_msgs(&mut acks_b);
                prop_assert_eq!(feedback_a.len(), feedback_b.len());

                // Aggregate counters and pool books match exactly.
                let mut summed = ControllerStats::default();
                for part in &parts {
                    summed.merge(&part.stats());
                }
                prop_assert_eq!(
                    comparable(seq.stats()),
                    comparable(summed),
                    "stats divergence (n={})",
                    n
                );
                for a in 0..N_APPS {
                    let app = AppId::new(a);
                    let owner = parts[a as usize % n].allocator();
                    let pa = seq.allocator().app_pool(app).expect("app");
                    let pb = owner.app_pool(app).expect("app");
                    prop_assert_eq!(
                        pa.allocated_cpu_cores().to_bits(),
                        pb.allocated_cpu_cores().to_bits()
                    );
                    prop_assert_eq!(pa.allocated_mem_bytes(), pb.allocated_mem_bytes());
                    prop_assert_eq!(
                        seq.allocator().tracked_cpu_sum(app).to_bits(),
                        owner.tracked_cpu_sum(app).to_bits()
                    );
                    prop_assert_eq!(
                        seq.allocator().tracked_mem_sum(app),
                        owner.tracked_mem_sum(app)
                    );
                }
                let pending: usize = parts.iter().map(Controller::pending_grant_count).sum();
                prop_assert_eq!(seq.pending_grant_count(), pending);
            }
        }
    }
}
