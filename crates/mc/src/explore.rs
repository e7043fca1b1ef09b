//! Exhaustive graph exploration: BFS / DFS over the branching
//! transition relation with canonical-fingerprint pruning.
//!
//! The frontier stores **paths** (choice sequences from the initial
//! state), not worlds: a popped entry is re-materialised by replaying
//! its path against a clone of the initial state. That trades CPU for
//! memory — a frontier of ten thousand entries is ten thousand small
//! `Vec<Choice>`s instead of ten thousand full control-plane clones —
//! and keeps every counterexample replayable for free, because the path
//! *is* the counterexample script.

use crate::invariants::{check_all, check_step, Violation};
use crate::model::{Choice, McConfig, World};
use escra_metrics::fingerprint::Fingerprint;
use std::collections::{BTreeSet, VecDeque};

/// Graph-exploration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Breadth-first: the first violation found has a minimal-length
    /// event script — the right default for debugging.
    Bfs,
    /// Depth-first: reaches deep states early with a small frontier.
    Dfs,
}

/// A replayable invariant violation: the exact choice sequence from the
/// initial state, and what broke at its end.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterExample {
    /// Choices from the initial state to the violating state.
    pub steps: Vec<Choice>,
    /// The invariant that failed there.
    pub violation: Violation,
}

/// What an exploration saw.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreResult {
    /// Distinct states visited (including the initial state).
    pub states: usize,
    /// Transitions taken (edges, including ones into already-visited
    /// states).
    pub transitions: usize,
    /// Longest path depth reached.
    pub max_depth: usize,
    /// The first violation found, if any (exploration stops on it).
    pub violation: Option<CounterExample>,
    /// The canonical fingerprints of every visited state. BFS and DFS
    /// must agree on this set when no violation cuts either short — the
    /// reachable closure of a finite graph does not depend on visit
    /// order (tests/mc_prop.rs holds them to it).
    pub fingerprints: BTreeSet<Fingerprint>,
}

/// Exhaustively explores every schedule of `cfg`'s bounded
/// configuration. The cheap per-state invariants (limit ≥ usage, pool
/// conservation — [`check_step`]) run in **every** distinct state; the
/// quiescence closure (grant resolution, ack convergence, an ack for
/// every grant the closure sent, no OOM left parked —
/// `check_quiescence`, which clones the world and drains it fault-free)
/// runs only in **terminal** states, where every budget is spent and
/// the network is empty. Every maximal schedule ends in a terminal
/// state, so nothing escapes the closure check — it just isn't re-run
/// on the interior states whose futures all funnel into the same
/// terminals. Stops at the first violation (under [`Strategy::Bfs`]
/// that yields a minimal counterexample) or when the reachable graph is
/// exhausted.
pub fn explore(cfg: &McConfig, strategy: Strategy) -> ExploreResult {
    let init = World::new(cfg.clone());
    let mut fingerprints = BTreeSet::new();
    fingerprints.insert(init.fingerprint());
    let mut result = ExploreResult {
        states: 1,
        transitions: 0,
        max_depth: 0,
        violation: None,
        fingerprints,
    };
    let init_choices = init.enabled_choices();
    let init_check = if init_choices.is_empty() {
        check_all(&init)
    } else {
        check_step(&init)
    };
    if let Some(v) = init_check {
        result.violation = Some(CounterExample {
            steps: Vec::new(),
            violation: v,
        });
        return result;
    }

    // Path frontier; entries are choice sequences from `init`.
    let mut frontier: VecDeque<Vec<Choice>> = VecDeque::new();
    if !init_choices.is_empty() {
        frontier.push_back(Vec::new());
    }

    while let Some(path) = match strategy {
        Strategy::Bfs => frontier.pop_front(),
        Strategy::Dfs => frontier.pop_back(),
    } {
        // Re-materialise the popped state by replaying its path.
        let mut world = init.clone();
        for &c in &path {
            world.apply(c);
        }
        for choice in world.enabled_choices() {
            let mut next = world.clone();
            next.apply(choice);
            result.transitions += 1;
            if !result.fingerprints.insert(next.fingerprint()) {
                continue; // seen (possibly via a different schedule)
            }
            result.states += 1;
            result.max_depth = result.max_depth.max(path.len() + 1);
            let mut next_path = path.clone();
            next_path.push(choice);
            let terminal = next.enabled_choices().is_empty();
            let check = if terminal {
                check_all(&next)
            } else {
                check_step(&next)
            };
            if let Some(v) = check {
                result.violation = Some(CounterExample {
                    steps: next_path,
                    violation: v,
                });
                return result;
            }
            if !terminal {
                frontier.push_back(next_path);
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::McConfig;

    #[test]
    fn tiny_config_explores_clean_and_deterministically() {
        let cfg = McConfig::tiny();
        let a = explore(&cfg, Strategy::Bfs);
        assert!(a.violation.is_none(), "violation: {:?}", a.violation);
        assert!(a.states > 1, "must actually branch");
        assert!(a.transitions >= a.states - 1);
        let b = explore(&cfg, Strategy::Bfs);
        assert_eq!(a, b, "exploration must be deterministic");
    }

    #[test]
    fn bfs_and_dfs_agree_on_the_reachable_set() {
        let cfg = McConfig::tiny();
        let bfs = explore(&cfg, Strategy::Bfs);
        let dfs = explore(&cfg, Strategy::Dfs);
        assert_eq!(bfs.violation, None);
        assert_eq!(dfs.violation, None);
        assert_eq!(bfs.fingerprints, dfs.fingerprints);
        assert_eq!(bfs.states, dfs.states);
        assert_eq!(bfs.transitions, dfs.transitions);
    }
}
