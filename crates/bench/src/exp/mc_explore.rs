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
//! In `--smoke` mode (wired into `scripts/check.sh`) it asserts that
//! all four configurations verify clean (zero invariant violations),
//! that BFS and DFS visit the *same* canonical state set, that each
//! state count matches a pinned constant (exploration is deterministic
//! — any drift means the model or the protocol changed), and that two
//! seeded protocol mutations are each caught by both strategies with a
//! counterexample that replays to the same violation:
//!
//! * `SkipStaleDiscard` — agents apply stale seqs; caught as **I5**
//!   (the safety valve fires re-applying an old limit below live
//!   usage);
//! * `AckClearsBySeqLe` — acks retire pending grants by
//!   `pending.seq <= ack.seq`, the exact controller bug fixed in this
//!   change; caught as **I4** (a dropped grant is silently lost because
//!   a later CPU ack cleared its retry state).
//!
//! The default mode additionally prints each minimal counterexample
//! script and its merged decision trace.

use escra_bench::Args;
use escra_mc::{explore, McConfig, Mutation, Strategy, Violation};

/// Pinned reachable-state counts. Exploration is deterministic, so
/// these are exact; update them (and say why in the commit) whenever
/// the model or the protocol semantics change.
const SMOKE_EXPECTED_STATES: usize = 442_429;
/// [`McConfig::tight_pool`]'s pinned count.
const TIGHT_EXPECTED_STATES: usize = 7_652;
/// [`McConfig::stale_window`]'s pinned count.
const STALE_EXPECTED_STATES: usize = 215;
/// [`McConfig::cross_kind`]'s pinned count.
const CROSS_EXPECTED_STATES: usize = 76;

pub fn run(args: &Args) {
    let verbose = !args.smoke;

    run_clean("smoke", &McConfig::smoke(), SMOKE_EXPECTED_STATES);
    run_clean("tight_pool", &McConfig::tight_pool(), TIGHT_EXPECTED_STATES);
    run_clean(
        "stale_window",
        &McConfig::stale_window(),
        STALE_EXPECTED_STATES,
    );
    run_clean("cross_kind", &McConfig::cross_kind(), CROSS_EXPECTED_STATES);

    run_mutation(
        "SkipStaleDiscard",
        McConfig::stale_window().with_mutation(Mutation::SkipStaleDiscard),
        |v| matches!(v, Violation::ValveClamped { .. }),
        verbose,
    );
    run_mutation(
        "AckClearsBySeqLe",
        McConfig::cross_kind().with_mutation(Mutation::AckClearsBySeqLe),
        |v| matches!(v, Violation::AckDivergence { .. }),
        verbose,
    );

    println!("mc_explore: OK");
}

/// Explores `cfg` under both strategies and asserts it verifies clean
/// with BFS ≡ DFS on the reachable set and the pinned state count
/// (which, two traversal orders agreeing, is the determinism gate).
fn run_clean(name: &str, cfg: &McConfig, expected_states: usize) {
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
