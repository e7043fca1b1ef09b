//! Property tests for the escra-mc model checker.
//!
//! Three families:
//!
//! * **Strategy agreement.** BFS and DFS must visit the *same* canonical
//!   state set (and agree there is no violation) on every sampled
//!   bounded configuration of the honest protocol — the reachable
//!   closure of a finite graph does not depend on visit order, so any
//!   disagreement means the fingerprint misses state or the model is
//!   nondeterministic.
//! * **Honest protocol verifies clean.** No sampled budget combination
//!   (OOMs, CPU reports, drops, duplicates, timer firings) produces an
//!   invariant violation without a seeded mutation.
//! * **Seeded mutations stay caught.** The three catchable mutations
//!   (stale applies, a `SetMemLimit` never acked, sweep reports lost)
//!   are found by both strategies on their hunt configurations, and
//!   stay found when the fault budgets are *enlarged* (more choices only
//!   add schedules — they can never hide the bad one). Each
//!   counterexample replays to the same violation with a non-empty
//!   decision trace. The fourth, `AckClearsBySeqLe`, has no schedule to
//!   act on once only memory grants are acked: it explores exactly the
//!   honest state set, enlarged budgets included.

use escra::mc::{explore, replay, Choice, McConfig, Mutation, Strategy, Violation, World};
use proptest::prelude::*;

/// A small honest configuration drawn from the sampled budgets: one
/// agent, one container, geometry as [`McConfig::smoke`].
fn bounded(ooms: u32, cpu: u32, drops: u32, dups: u32, ticks: u32) -> McConfig {
    McConfig {
        agents: 1,
        containers: 1,
        ooms_per_container: ooms,
        cpu_reports_per_container: cpu,
        cpu_report_containers: usize::from(cpu > 0),
        drops,
        duplicates: dups,
        ticks,
        ..McConfig::smoke()
    }
}

/// BFS and DFS agree, and the honest protocol is clean, on **every**
/// configuration of the budget lattice (exhaustive, not sampled): ooms
/// 0–2 × cpu reports 0–1 × drops 0–1 × duplicates 0–1 × ticks 0–1,
/// capped at 5 total budgeted events to keep the debug-build run short
/// (the release-mode `mc_explore` gate covers the bigger geometries).
#[test]
fn bfs_and_dfs_agree_and_the_honest_protocol_is_clean() {
    let mut checked = 0;
    for ooms in 0..=2u32 {
        for cpu in 0..=1u32 {
            for drops in 0..=1u32 {
                for dups in 0..=1u32 {
                    for ticks in 0..=1u32 {
                        if ooms + cpu + drops + dups + ticks > 5 {
                            continue;
                        }
                        let cfg = bounded(ooms, cpu, drops, dups, ticks);
                        let bfs = explore(&cfg, Strategy::Bfs);
                        let dfs = explore(&cfg, Strategy::Dfs);
                        assert!(
                            bfs.violation.is_none(),
                            "honest protocol must verify clean on \
                             ({ooms},{cpu},{drops},{dups},{ticks}), got {:?}",
                            bfs.violation
                        );
                        assert!(dfs.violation.is_none());
                        assert_eq!(bfs.fingerprints, dfs.fingerprints);
                        assert_eq!(bfs.states, dfs.states);
                        assert_eq!(bfs.transitions, dfs.transitions);
                        assert_eq!(bfs.states, bfs.fingerprints.len());
                        checked += 1;
                    }
                }
            }
        }
    }
    assert_eq!(checked, 47, "lattice coverage drifted");
}

/// Whether `v` is the violation `mutation` is caught by.
fn catches(mutation: Mutation, v: &Violation) -> bool {
    match mutation {
        Mutation::SkipStaleDiscard => matches!(v, Violation::ValveClamped { .. }),
        Mutation::NeverAckMemLimit => matches!(v, Violation::GrantUnacked { .. }),
        Mutation::DropReclaimReports => matches!(v, Violation::OomParked { .. }),
        Mutation::None | Mutation::AckClearsBySeqLe => false,
    }
}

proptest! {
    #[test]
    fn seeded_mutations_stay_caught_under_enlarged_budgets(
        extra_drops in 0u32..2,
        extra_dups in 0u32..2,
        extra_ticks in 0u32..2,
    ) {
        // Enlarging budgets adds schedules; the catching schedule is
        // still among them, so the mutation must still be caught (by
        // both strategies — DFS may find a different, longer witness).
        let grow = |mut cfg: McConfig| {
            cfg.drops += extra_drops;
            cfg.duplicates += extra_dups;
            cfg.ticks += extra_ticks;
            cfg
        };
        for (cfg, mutation) in [
            (McConfig::stale_window(), Mutation::SkipStaleDiscard),
            (McConfig::stale_window(), Mutation::NeverAckMemLimit),
            (McConfig::tight_pool(), Mutation::DropReclaimReports),
        ] {
            let cfg = grow(cfg).with_mutation(mutation);
            let bfs = explore(&cfg, Strategy::Bfs);
            let ce = bfs.violation.clone();
            prop_assert!(ce.is_some(), "BFS missed {:?}", mutation);
            let ce = ce.unwrap();
            prop_assert!(
                catches(mutation, &ce.violation),
                "{:?}: {}",
                mutation,
                ce.violation
            );
            prop_assert!(
                explore(&cfg, Strategy::Dfs).violation.is_some(),
                "DFS missed the mutation"
            );
            // The counterexample is replayable: same violation, with a
            // rendered decision trace and a deterministic fingerprint.
            let a = replay(&cfg, &ce.steps);
            let b = replay(&cfg, &ce.steps);
            prop_assert_eq!(a.violation.as_ref(), Some(&ce.violation));
            prop_assert!(!a.trace.is_empty());
            prop_assert_eq!(a.trace_fp, b.trace_fp);
            prop_assert_eq!(&a.script, &b.script);
        }
    }
}

/// The pre-fix controller bug (`pending.seq <= ack.seq`) needs an ack
/// whose seq is above its container's pending grant. Its only witness
/// was the ack of a later CPU command; only `SetMemLimit` is acked now,
/// and a memory ack never outruns the grant it answers, so the mutation
/// is unreachable: the mutated controller explores exactly the honest
/// state set on `cross_kind` under every enlargement the proptest above
/// samples (exhaustively here: +0–1 drops × duplicates × ticks), and
/// the old witness's schedule ends with nothing in flight for it to
/// misread.
#[test]
fn ack_seq_le_mutation_is_unreachable_with_memory_only_acks() {
    for extra in 0..8u32 {
        let honest = McConfig {
            drops: McConfig::cross_kind().drops + (extra & 1),
            duplicates: extra >> 1 & 1,
            ticks: extra >> 2,
            ..McConfig::cross_kind()
        };
        let mutated = honest.clone().with_mutation(Mutation::AckClearsBySeqLe);
        let honest = explore(&honest, Strategy::Bfs);
        let mutated = explore(&mutated, Strategy::Bfs);
        assert_eq!(mutated.violation, None, "enlargement {extra:03b}");
        assert_eq!(mutated.states, honest.states, "enlargement {extra:03b}");
        assert!(mutated.fingerprints == honest.fingerprints);
    }
    let cfg = McConfig::cross_kind().with_mutation(Mutation::AckClearsBySeqLe);
    // The old witness: trap, deliver the OOM event, drop the grant,
    // report a throttled period, deliver the stats, deliver the quota.
    // Its seventh step delivered the CPU ack; there is none to deliver.
    let steps = [
        Choice::Oom(0),
        Choice::Deliver(0),
        Choice::Drop(0),
        Choice::CpuReport(0),
        Choice::Deliver(0),
        Choice::Deliver(0),
    ];
    let r = replay(&cfg, &steps);
    assert_eq!(r.violation, None);
    assert!(r.trace.contains("grant_issued"), "trace:\n{}", r.trace);
    assert!(r.trace.contains("fault_drop"));
    let w = steps.iter().fold(World::new(cfg), |mut w, &c| {
        w.apply(c);
        w
    });
    assert!(
        w.enabled_choices().is_empty(),
        "left: {:?}",
        w.enabled_choices()
    );
}

/// The stale-discard mutation's witness replays against the honest
/// protocol without tripping anything: the agent's seq check is exactly
/// what separates the two runs.
#[test]
fn stale_discard_counterexample_is_discarded_by_the_honest_agent() {
    let cfg = McConfig::stale_window().with_mutation(Mutation::SkipStaleDiscard);
    let ce = explore(&cfg, Strategy::Bfs)
        .violation
        .expect("mutation must be caught");
    assert!(matches!(ce.violation, Violation::ValveClamped { .. }));
    let mutated = replay(&cfg, &ce.steps);
    assert!(mutated.trace.contains("agent_valve_clamp"));
    let honest = replay(&McConfig::stale_window(), &ce.steps);
    assert_eq!(honest.violation, None);
    assert!(
        honest.trace.contains("agent_stale_drop"),
        "honest trace:\n{}",
        honest.trace
    );
}
