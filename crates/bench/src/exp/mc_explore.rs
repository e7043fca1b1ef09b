//! Exhaustive model-check of the limit/ack/grant protocol (escra-mc).
//!
//! Explores every schedule — message reorderings, budgeted drops and
//! duplicates, OOM traps, throttled CPU reports, and grant-retry timer
//! firings — of four bounded configurations of the *real* control-plane
//! state machines (`Controller`, `Agent`, live memory cgroups):
//!
//! * **smoke**: 1 controller × 2 agents × 2 containers, a roomy pool
//!   (grants succeed), one OOM per container, one throttled CPU period,
//!   1 drop + 1 duplicate + 1 timer budget — the main gate;
//! * **tight_pool**: the pool squeezed so the grant path goes deny →
//!   reclaim sweep → kill;
//! * **stale_window** / **cross_kind**: the small hunt configurations
//!   the seeded mutations are caught on (clean under the real
//!   protocol).
//!
//! Every delivery goes through `escra_core`'s delivery step, the glue
//! the drivers' control plane runs too, so the checker explores the
//! plane's own reply rule (only `SetMemLimit` is acked) and routing.
//!
//! In `--smoke` mode (wired into `scripts/check.sh`) it asserts that
//! all four configurations verify clean (zero invariant violations),
//! that BFS and DFS visit the *same* canonical state set, that each
//! state count matches a pinned constant (exploration is deterministic
//! — any drift means the model or the protocol changed), and that three
//! seeded mutations are each caught by both strategies with a
//! counterexample that replays to the same violation:
//!
//! * `SkipStaleDiscard` — agents apply stale seqs; caught as **I5**
//!   (the safety valve fires re-applying an old limit below live
//!   usage);
//! * `NeverAckMemLimit` — the step's `LimitAck` reply is dropped;
//!   caught as **I6** (a grant the fault-free closure re-sent is never
//!   acked);
//! * `DropReclaimReports` — the step's sweep report is dropped; caught
//!   as **I7** (the OOM parked behind the sweep is never decided).
//!
//! It also asserts that `AckClearsBySeqLe` (acks retire pending grants
//! by `pending.seq <= ack.seq`, the pre-fix controller bug) is
//! unreachable: with memory-only acks no ack carries a seq above its
//! container's pending grant, so on six configurations the mutated
//! protocol visits exactly the honest state set.
//!
//! The default mode additionally prints each minimal counterexample
//! script and its merged decision trace.

use escra_bench::Args;
use escra_mc::{explore, ExploreResult, McConfig, Mutation, Strategy, Violation};

/// Pinned reachable-state counts. Exploration is deterministic, so
/// these are exact; update them (and say why in the commit) whenever
/// the model or the protocol semantics change.
const SMOKE_EXPECTED_STATES: usize = 288_503;
/// [`McConfig::tight_pool`]'s pinned count.
const TIGHT_EXPECTED_STATES: usize = 7_652;
/// [`McConfig::stale_window`]'s pinned count.
const STALE_EXPECTED_STATES: usize = 215;
/// [`McConfig::cross_kind`]'s pinned count.
const CROSS_EXPECTED_STATES: usize = 55;
/// [`cross_kind_enlarged`]'s pinned count.
const CROSS_ENLARGED_EXPECTED_STATES: usize = 704_423;
/// [`stale_window_enlarged`]'s pinned count.
const STALE_ENLARGED_EXPECTED_STATES: usize = 21_420;

/// `cross_kind` with 2 OOMs, 2 drops, 2 ticks and a duplicate: room for
/// a second grant, and so for its ack, behind the first.
fn cross_kind_enlarged() -> McConfig {
    McConfig {
        ooms_per_container: 2,
        drops: 2,
        ticks: 2,
        duplicates: 1,
        ..McConfig::cross_kind()
    }
}

/// `stale_window` with a drop and 2 ticks: retries race the stale copy.
fn stale_window_enlarged() -> McConfig {
    McConfig {
        drops: 1,
        ticks: 2,
        ..McConfig::stale_window()
    }
}

pub fn run(args: &Args) {
    let verbose = !args.smoke;

    let pinned = [
        ("smoke", McConfig::smoke(), SMOKE_EXPECTED_STATES),
        ("tight_pool", McConfig::tight_pool(), TIGHT_EXPECTED_STATES),
        (
            "stale_window",
            McConfig::stale_window(),
            STALE_EXPECTED_STATES,
        ),
        ("cross_kind", McConfig::cross_kind(), CROSS_EXPECTED_STATES),
    ];
    let mut honest = Vec::new();
    for (name, cfg, expected) in pinned {
        let bfs = run_clean(name, &cfg, expected);
        honest.push((name, cfg, bfs));
    }

    run_mutation(
        "SkipStaleDiscard",
        McConfig::stale_window().with_mutation(Mutation::SkipStaleDiscard),
        |v| matches!(v, Violation::ValveClamped { .. }),
        verbose,
    );
    run_mutation(
        "NeverAckMemLimit",
        McConfig::stale_window().with_mutation(Mutation::NeverAckMemLimit),
        |v| matches!(v, Violation::GrantUnacked { .. }),
        verbose,
    );
    run_mutation(
        "DropReclaimReports",
        McConfig::tight_pool().with_mutation(Mutation::DropReclaimReports),
        |v| matches!(v, Violation::OomParked { .. }),
        verbose,
    );

    let enlarged = [
        (
            "cross_kind_enlarged",
            cross_kind_enlarged(),
            CROSS_ENLARGED_EXPECTED_STATES,
        ),
        (
            "stale_window_enlarged",
            stale_window_enlarged(),
            STALE_ENLARGED_EXPECTED_STATES,
        ),
    ];
    for (name, cfg, expected) in enlarged {
        let bfs = explore(&cfg, Strategy::Bfs);
        assert_eq!(bfs.violation, None, "{name}: honest protocol violated");
        assert_eq!(
            bfs.states, expected,
            "{name}: state count drifted from the pinned constant"
        );
        honest.push((name, cfg, bfs));
    }
    for (name, cfg, bfs) in &honest {
        run_unreachable(Mutation::AckClearsBySeqLe, name, cfg, bfs);
    }

    println!("mc_explore: OK");
}

/// Asserts that `mutation` is unreachable on `cfg`: under BFS the
/// mutated protocol visits exactly `honest`'s state set, so no schedule
/// ever takes the mutated branch.
fn run_unreachable(mutation: Mutation, name: &str, cfg: &McConfig, honest: &ExploreResult) {
    let mutated = explore(&cfg.clone().with_mutation(mutation), Strategy::Bfs);
    assert_eq!(mutated.violation, None, "{mutation:?} on {name}: violated");
    assert!(
        mutated.fingerprints == honest.fingerprints,
        "{mutation:?} on {name}: {} states, the honest protocol {}",
        mutated.states,
        honest.states
    );
    println!(
        "{mutation:?} on {name}: unreachable ({} states, as honest)",
        mutated.states
    );
}

/// Explores `cfg` under both strategies and asserts it verifies clean
/// with BFS ≡ DFS on the reachable set and the pinned state count
/// (which, two traversal orders agreeing, is the determinism gate).
/// Returns the BFS result.
fn run_clean(name: &str, cfg: &McConfig, expected_states: usize) -> ExploreResult {
    let bfs = explore(cfg, Strategy::Bfs);
    if let Some(ce) = &bfs.violation {
        eprintln!("{name}: UNEXPECTED violation: {}", ce.violation);
        for line in escra_mc::replay(cfg, &ce.steps).script {
            eprintln!("    {line}");
        }
        std::process::exit(1);
    }
    let dfs = explore(cfg, Strategy::Dfs);
    assert_eq!(dfs.violation, None, "{name}: DFS found what BFS did not");
    assert_eq!(
        bfs.fingerprints, dfs.fingerprints,
        "{name}: BFS and DFS disagree on the reachable state set"
    );
    assert_eq!(bfs.states, dfs.states);
    assert_eq!(
        bfs.states, expected_states,
        "{name}: state count drifted from the pinned constant"
    );
    println!(
        "{name}: {} states, {} transitions, depth {} — clean (BFS == DFS)",
        bfs.states, bfs.transitions, bfs.max_depth
    );
    bfs
}

/// Asserts the seeded mutation is caught by both strategies, that the
/// violation is of the expected kind, and that the counterexample
/// replays to the same violation with a live decision trace.
fn run_mutation(name: &str, cfg: McConfig, expected: fn(&Violation) -> bool, verbose: bool) {
    let bfs = explore(&cfg, Strategy::Bfs);
    let ce = bfs
        .violation
        .unwrap_or_else(|| panic!("{name}: mutation not caught by BFS"));
    assert!(
        expected(&ce.violation),
        "{name}: unexpected violation kind: {}",
        ce.violation
    );
    let dfs = explore(&cfg, Strategy::Dfs);
    assert!(
        dfs.violation.is_some(),
        "{name}: mutation not caught by DFS"
    );
    let replay = escra_mc::replay(&cfg, &ce.steps);
    assert_eq!(
        replay.violation.as_ref(),
        Some(&ce.violation),
        "{name}: counterexample did not replay to the same violation"
    );
    assert!(!replay.trace.is_empty(), "{name}: replay produced no trace");
    println!(
        "{name}: caught in {} steps after {} states — {}",
        ce.steps.len(),
        bfs.states,
        ce.violation
    );
    if verbose {
        for line in &replay.script {
            println!("    {line}");
        }
        println!("  fault plan: {:?}", replay.fault_plan);
        println!("  merged decision trace:");
        for line in replay.trace.lines() {
            println!("    {line}");
        }
    }
}
