//! The checked protocol invariants.
//!
//! Two kinds: **step invariants** ([`check_step`]) must hold in every
//! reachable state, and **quiescence invariants** ([`check_quiescence`])
//! must hold after the state is *closed out* — every in-flight message
//! delivered fault-free and every armed timer allowed to fire. The
//! closure is what turns "a grant is currently unacked" (normal) into
//! "a grant is unacked and no mechanism will ever resolve it" (a bug):
//! the checker only flags divergence the protocol's own retry /
//! reconcile / abandon machinery cannot repair.

use crate::model::{Choice, World, APP};
use escra_cluster::ContainerId;
use escra_metrics::trace::TraceSink;

/// A violated invariant, with the numbers that witnessed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A running container's enforced memory limit is below its live
    /// usage — the agent's safety valve failed and the next charge of a
    /// single byte OOM-kills it.
    LimitBelowUsage {
        /// The endangered container.
        container: ContainerId,
        /// Its enforced limit.
        limit_bytes: u64,
        /// Its live usage.
        usage_bytes: u64,
    },
    /// The application pool's books disagree with the per-container
    /// tracks: Σ tracked memory limits ≠ pool allocated bytes. Grants
    /// were double-charged or released twice.
    MemPoolLeak {
        /// Σ of tracked per-container memory limits.
        tracked_sum_bytes: u64,
        /// The pool's allocated bytes.
        pool_allocated_bytes: u64,
    },
    /// The CPU side of the same conservation law, compared with a small
    /// float tolerance.
    CpuPoolLeak {
        /// Σ of tracked per-container quotas, in milli-cores (rounded).
        tracked_sum_millicores: u64,
        /// The pool's allocated cores, in milli-cores (rounded).
        pool_allocated_millicores: u64,
    },
    /// After closing the state out, `container` still has a pending
    /// (unacked, unabandoned) grant — the retry/abandon machine wedged.
    GrantUnresolved {
        /// The stranded container.
        container: ContainerId,
        /// The pending grant's seq.
        seq: u64,
    },
    /// After closing the state out, the controller's tracked limit and
    /// the enforced cgroup limit never converged, and no abandoned
    /// grant accounts for the gap: a limit update was silently lost.
    AckDivergence {
        /// The divergent container.
        container: ContainerId,
        /// The controller's tracked limit.
        tracked_bytes: u64,
        /// The limit actually enforced on the node.
        enforced_bytes: u64,
    },
    /// An agent's safety valve fired (it was asked to set a limit below
    /// live usage). In the modelled protocol per-container limits are
    /// monotone non-decreasing and usage never exceeds the enforced
    /// limit, so a correctly seq-disciplined agent **never** needs the
    /// valve — any clamp means a stale or out-of-order command reached
    /// the cgroup.
    ValveClamped {
        /// The node whose agent clamped.
        node: escra_cluster::NodeId,
        /// How many clamps it has performed.
        clamps: u64,
    },
    /// A memory grant the fault-free closure (re)sent was still pending
    /// once the closure had delivered everything: with no fault left to
    /// lose it, only a missing or mismatched ack can leave it so.
    GrantUnacked {
        /// The container whose grant went unacked.
        container: ContainerId,
        /// The grant's seq.
        seq: u64,
    },
    /// After closing the state out, OOM events are still parked behind
    /// a reclamation sweep: no sweep's report reached the Controller to
    /// decide them (grant or kill).
    OomParked {
        /// How many OOM events are still parked.
        parked: usize,
    },
    /// The fault-free closure did not drain the network within its
    /// round bound — messages regenerate forever (a livelock).
    ClosureDiverged {
        /// Messages still in flight when the bound was hit.
        in_flight: usize,
    },
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Violation::LimitBelowUsage {
                container,
                limit_bytes,
                usage_bytes,
            } => write!(
                f,
                "I1 limit-below-usage: {container} enforces {limit_bytes} B below live usage {usage_bytes} B"
            ),
            Violation::MemPoolLeak {
                tracked_sum_bytes,
                pool_allocated_bytes,
            } => write!(
                f,
                "I2 mem-pool-leak: Σ tracked limits {tracked_sum_bytes} B ≠ pool allocated {pool_allocated_bytes} B"
            ),
            Violation::CpuPoolLeak {
                tracked_sum_millicores,
                pool_allocated_millicores,
            } => write!(
                f,
                "I2 cpu-pool-leak: Σ tracked quotas {tracked_sum_millicores} mc ≠ pool allocated {pool_allocated_millicores} mc"
            ),
            Violation::GrantUnresolved { container, seq } => write!(
                f,
                "I3 grant-unresolved: {container} still has pending grant seq {seq} after closure"
            ),
            Violation::AckDivergence {
                container,
                tracked_bytes,
                enforced_bytes,
            } => write!(
                f,
                "I4 ack-divergence: {container} tracked {tracked_bytes} B vs enforced {enforced_bytes} B after closure (no abandon on the books)"
            ),
            Violation::ValveClamped { node, clamps } => write!(
                f,
                "I5 valve-clamped: agent on {node} clamped {clamps} stale limit(s) below live usage"
            ),
            Violation::GrantUnacked { container, seq } => write!(
                f,
                "I6 grant-unacked: {container}'s grant seq {seq}, sent during the fault-free closure, was not acked within it"
            ),
            Violation::OomParked { parked } => write!(
                f,
                "I7 oom-parked: {parked} OOM event(s) still parked behind a reclamation sweep after closure"
            ),
            Violation::ClosureDiverged { in_flight } => write!(
                f,
                "closure diverged: {in_flight} messages still in flight at the round bound"
            ),
        }
    }
}

/// Safety margin on the closure's delivery loop: far above anything a
/// bounded configuration can generate, so hitting it means livelock.
const CLOSURE_DELIVERY_GUARD: usize = 100_000;

/// Checks the step invariants of `world` (I1 limit ≥ usage, I2 pool
/// conservation, I5 valve silence). Returns the first violation found.
pub fn check_step<S: TraceSink>(world: &World<S>) -> Option<Violation> {
    // I1: a running container's enforced limit covers its live usage.
    // (Starting containers are re-charging their base set; terminated
    // ones keep stale cgroups nobody enforces.)
    for &cid in &world.containers {
        let c = world
            .cluster
            .container(cid)
            .expect("model containers persist");
        if c.is_running() && c.mem.limit_bytes() < c.mem.usage_bytes() {
            return Some(Violation::LimitBelowUsage {
                container: cid,
                limit_bytes: c.mem.limit_bytes(),
                usage_bytes: c.mem.usage_bytes(),
            });
        }
    }
    // I2: the pool's allocated figures equal the Σ of tracked grants.
    let alloc = world.controller.allocator();
    let pool = alloc.app_pool(APP).expect("model app is registered");
    let tracked_mem = alloc.tracked_mem_sum(APP);
    if tracked_mem != pool.allocated_mem_bytes() {
        return Some(Violation::MemPoolLeak {
            tracked_sum_bytes: tracked_mem,
            pool_allocated_bytes: pool.allocated_mem_bytes(),
        });
    }
    let to_mc = |cores: f64| (cores * 1000.0).round() as u64;
    let tracked_cpu = alloc.tracked_cpu_sum(APP);
    if (tracked_cpu - pool.allocated_cpu_cores()).abs() > 1e-6 {
        return Some(Violation::CpuPoolLeak {
            tracked_sum_millicores: to_mc(tracked_cpu),
            pool_allocated_millicores: to_mc(pool.allocated_cpu_cores()),
        });
    }
    // I5: the safety valve never fires under correct seq discipline —
    // limits are monotone per container and usage stays under the
    // enforced limit, so only a stale/reordered apply can trip it.
    for a in &world.agents {
        if a.valve_clamps() > 0 {
            return Some(Violation::ValveClamped {
                node: a.node(),
                clamps: a.valve_clamps(),
            });
        }
    }
    None
}

/// Closes a **clone** of `world` out fault-free and checks the
/// quiescence invariants (I3 no-lost-grant, I4 ack convergence, I6
/// every grant sent in the closure acked within it, I7 no OOM left
/// parked).
///
/// The closure delivers every in-flight message (no drops, duplicates
/// already in the multiset still deliver — they are real traffic), and
/// runs the controller's timers until the retry/abandon machine settles:
///
/// * while grants are pending, advance by `grant_retry_timeout` so each
///   pending grant either gets re-sent (and the re-send delivered) or
///   abandoned;
/// * when only parked OOMs remain with an empty network, jump to the
///   next periodic reclaim so the sweep/kill path rescues them;
/// * bounded by `grant_max_retries + 4` timer rounds — enough for any
///   grant to exhaust its retries — so divergence is detected, not
///   looped on.
///
/// Every drain ends with every message delivered, so a grant the
/// closure (re)sent must have been acked by then (I6): a grant still
/// pending with a seq it did not have when the closure began fails.
/// Once the closure settles, no OOM event may still wait on a sweep
/// (I7).
///
/// Convergence is judged on memory only: `tracked == enforced` for each
/// live tracked container, or `tracked > enforced` with at least one
/// abandoned grant on the books (the documented, counted degradation —
/// the next OOM event reconciles it). `tracked < enforced` is always a
/// violation: the agent enforces bytes the pool never granted. CPU
/// quota convergence is deliberately not checked — quota divergence is
/// repaired by the next telemetry report, a loop the model bounds
/// separately.
pub fn check_quiescence<S: TraceSink>(world: &World<S>) -> Option<Violation>
where
    World<S>: Clone,
{
    let mut w = world.clone();
    let max_rounds = w.cfg.escra.grant_max_retries + 4;
    let mut deliveries = 0usize;
    let seqs_before: Vec<Option<u64>> = pending_seqs(&w).collect();
    for _ in 0..=max_rounds {
        // Drain the network fault-free (responses may enqueue more).
        while !w.net.is_empty() {
            w.apply(Choice::Deliver(0));
            deliveries += 1;
            if deliveries > CLOSURE_DELIVERY_GUARD {
                return Some(Violation::ClosureDiverged {
                    in_flight: w.net.len(),
                });
            }
        }
        // I6: whatever the closure sent has been delivered, acks too.
        let sent_in_closure = pending_seqs(&w)
            .zip(&seqs_before)
            .zip(&w.containers)
            .find_map(|((now, before), &c)| now.filter(|s| Some(*s) != *before).map(|s| (c, s)));
        if let Some((container, seq)) = sent_in_closure {
            return Some(Violation::GrantUnacked { container, seq });
        }
        if w.controller.pending_grant_count() > 0 {
            // Let the retry timer fire (or abandon) and loop.
            let next = w.now + w.cfg.escra.grant_retry_timeout;
            w.clean_tick_to(next);
        } else if w.controller.pending_oom_count() > 0 {
            // Parked OOMs wait on the periodic reclaim loop; jump to it.
            let interval = w.cfg.escra.reclaim_interval;
            let next = w.now + interval;
            w.clean_tick_to(next);
        } else {
            break;
        }
    }
    if let Some((container, seq)) = first_pending_grant(&w) {
        return Some(Violation::GrantUnresolved { container, seq });
    }
    // I7: every parked OOM was decided by a sweep's report.
    let parked = w.controller.pending_oom_count();
    if parked > 0 {
        return Some(Violation::OomParked { parked });
    }
    // I4: books vs nodes, per live tracked container.
    let abandons = w.controller.stats().grants_abandoned;
    let alloc = w.controller.allocator();
    for cid in alloc.container_ids() {
        let tracked = alloc.mem_limit_of(cid).expect("live id has a track");
        let Some(c) = w.cluster.container(cid) else {
            continue;
        };
        let enforced = c.mem.limit_bytes();
        if tracked == enforced {
            continue;
        }
        if tracked > enforced && abandons > 0 {
            // Documented degradation: the grant was abandoned after its
            // retries; the books keep the bytes and the next OOM event
            // reconciles. Counted, not silent.
            continue;
        }
        return Some(Violation::AckDivergence {
            container: cid,
            tracked_bytes: tracked,
            enforced_bytes: enforced,
        });
    }
    None
}

/// Each model container's pending grant seq, in container order.
fn pending_seqs<S: TraceSink>(w: &World<S>) -> impl Iterator<Item = Option<u64>> + '_ {
    w.containers
        .iter()
        .map(|&c| w.controller.pending_grant_seq(c))
}

fn first_pending_grant<S: TraceSink>(w: &World<S>) -> Option<(ContainerId, u64)> {
    for &cid in &w.containers {
        if let Some(seq) = w.controller.pending_grant_seq(cid) {
            return Some((cid, seq));
        }
    }
    None
}

/// Step + quiescence in one call; the explorer runs this on every state.
pub fn check_all<S: TraceSink>(world: &World<S>) -> Option<Violation>
where
    World<S>: Clone,
{
    check_step(world).or_else(|| check_quiescence(world))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{McConfig, Mutation, World};

    #[test]
    fn initial_state_satisfies_everything() {
        let w = World::new(McConfig::smoke());
        assert_eq!(check_all(&w), None);
        let w = World::new(McConfig::tight_pool());
        assert_eq!(check_all(&w), None);
    }

    #[test]
    fn honest_oom_round_trip_stays_clean() {
        let mut w = World::new(McConfig::smoke());
        w.apply(Choice::Oom(0));
        assert_eq!(check_all(&w), None, "mid-flight OOM event");
        w.apply(Choice::Deliver(0));
        assert_eq!(check_all(&w), None, "grant in flight, pending");
        w.apply(Choice::Deliver(0));
        assert_eq!(check_all(&w), None, "ack in flight");
        w.apply(Choice::Deliver(0));
        assert_eq!(check_all(&w), None, "quiesced");
    }

    #[test]
    fn dropped_grant_is_rescued_by_the_retry_machine() {
        let mut w = World::new(McConfig::smoke());
        w.apply(Choice::Oom(0));
        w.apply(Choice::Deliver(0)); // grant goes in flight
        w.apply(Choice::Drop(0)); // ...and the network eats it
                                  // Right now tracked > enforced and the grant is pending — the
                                  // closure must let the retry timer repair it, not cry wolf.
        assert_eq!(check_all(&w), None);
    }

    #[test]
    fn seeded_stale_discard_skip_trips_the_valve() {
        // The stale_window hunt: two OOMs put two grants with different
        // limits (128 then 160 MiB) in flight; a duplicated copy of the
        // first, delivered after the second applied (and its charge
        // raised usage to 160 MiB), is stale. The honest agent discards
        // it; the mutated agent re-applies 128 MiB below live usage and
        // the safety valve fires — invariant I5.
        let script = |mutation: Mutation| {
            let mut w = World::new(McConfig::stale_window().with_mutation(mutation));
            w.apply(Choice::Oom(0)); // trap at 64/96 MiB
            w.apply(Choice::Deliver(0)); // grant #1 (128 MiB) in flight
            w.apply(Choice::Duplicate(0)); // two copies of it
            w.apply(Choice::Deliver(0)); // apply #1: limit 128, usage 112
            w.apply(Choice::Oom(0)); // trap again (16 MiB headroom)
            w.apply(Choice::Deliver(0)); // OomEvent #2 → grant #2 (160 MiB)
                                         // In flight (canonical order): [ack #1, stale 128 MiB copy,
                                         // grant #2] — acks sort before agent commands, 128 before 160.
            w.apply(Choice::Deliver(2)); // apply grant #2: usage 160 MiB
            w.apply(Choice::Deliver(2)); // the stale 128 MiB copy lands
            check_step(&w)
        };
        assert_eq!(script(Mutation::None), None, "honest agent discards it");
        assert!(
            matches!(
                script(Mutation::SkipStaleDiscard),
                Some(Violation::ValveClamped { clamps: 1, .. })
            ),
            "mutated agent re-applies the stale limit below usage"
        );
    }

    #[test]
    fn the_cross_kind_schedule_has_no_cpu_ack_left_to_misuse() {
        // The old cross_kind witness: a dropped memory grant stays
        // pending while a later CPU quota command applies. The Agent
        // acked that command once, and the pre-fix `pending.seq <= seq`
        // rule let its higher seq retire the grant. Only `SetMemLimit`
        // is acked now: the quota applies silently, the network is
        // empty, and the mutated controller is in the honest state.
        let script = |mutation: Mutation| {
            let mut w = World::new(McConfig::cross_kind().with_mutation(mutation));
            w.apply(Choice::Oom(0)); // trap
            w.apply(Choice::Deliver(0)); // OomEvent → grant in flight
            w.apply(Choice::Drop(0)); // the network eats the grant
            w.apply(Choice::CpuReport(0)); // throttled period
            w.apply(Choice::Deliver(0)); // stats → SetCpuQuota (seq + 1)
            w.apply(Choice::Deliver(0)); // quota applied, nothing sent back
            assert!(w.net.is_empty(), "a CPU command was answered");
            assert_eq!(check_all(&w), None, "the retry re-sends the grant");
            w.fingerprint()
        };
        assert_eq!(script(Mutation::None), script(Mutation::AckClearsBySeqLe));
    }

    #[test]
    fn a_grant_never_acked_is_caught_once_the_closure_resends_it() {
        // One OOM, its grant applied. The honest Agent's ack is in
        // flight and the closure delivers it; the mutated Agent sent
        // none, so the retry timer re-sends the grant inside the
        // closure, and that copy goes unacked too.
        let script = |mutation: Mutation| {
            let mut w = World::new(McConfig::tiny().with_mutation(mutation));
            w.apply(Choice::Oom(0)); // trap
            w.apply(Choice::Deliver(0)); // OomEvent → grant in flight
            w.apply(Choice::Deliver(0)); // grant applied
            check_quiescence(&w)
        };
        assert_eq!(script(Mutation::None), None);
        assert!(
            matches!(
                script(Mutation::NeverAckMemLimit),
                Some(Violation::GrantUnacked { .. })
            ),
            "the re-sent grant was never acked"
        );
    }

    #[test]
    fn an_oom_behind_a_lost_report_is_caught_parked() {
        // The pool is too tight to grant: the OOM parks behind a sweep
        // of both nodes. The honest reports reach the Controller, which
        // decides the OOM; the mutated ones never do, and the periodic
        // sweeps the closure runs lose their reports as well.
        let script = |mutation: Mutation| {
            let mut w = World::new(McConfig::tight_pool().with_mutation(mutation));
            w.apply(Choice::Oom(0)); // trap
            w.apply(Choice::Deliver(0)); // OomEvent → parked, two sweeps
            assert_eq!(w.controller.pending_oom_count(), 1);
            w.apply(Choice::Deliver(0)); // sweep of node 0
            w.apply(Choice::Deliver(0)); // sweep of node 1
            check_quiescence(&w)
        };
        assert_eq!(script(Mutation::None), None);
        assert_eq!(
            script(Mutation::DropReclaimReports),
            Some(Violation::OomParked { parked: 1 })
        );
    }
}
