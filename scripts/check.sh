#!/usr/bin/env bash
# The repo's CI gate: build, full test suite, lints, formatting.
# Run before every commit; everything must pass with zero warnings.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release

echo "== tests (workspace) =="
cargo test -q --workspace

echo "== bench smoke (controller ingest vs committed baseline) =="
# One short overhead_controller round: validates the per-message,
# batched and (always-measured) columnar ingest paths end to end, and the
# app-sharded capacity model at 1/2/4/8 shards — asserting every form and
# shard count makes the decisions of the 1-shard row path — and fails on
# a lost 2x speedup over the pre-batching baseline, a 4-shard scaling
# factor below 2.5x, or a gated key missing from BENCH_controller.json
# (whose 20 % floors gate full-length runs only).
cargo run -q -p escra-bench --release -- overhead_controller --smoke --check

echo "== frozen benchmark (unit tests, then all five workloads for 1 s each, against the working tree) =="
# Its own package, pinned to the crates' public surface (run.sh builds it); a digest that moves between repetitions is `correct false`.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
for w in paper_matrix micro_scale trace_dense trace_sparse ctl_mixed; do
    bash benchmark/run.sh --workload "$w" --seconds 1 | awk '$2 == "correct" { c = $3 } $2 == "failed" { f = $3 } END { exit !(c == "true" && f == "0") }'
done

echo "== sim scale smoke (10k nodes, 1M+ container-periods vs committed baseline) =="
# A 10k-node / 12k-container event-heap run; fails if throughput drops
# below half the committed BENCH_sim.json rate.
cargo run -q -p escra-bench --release -- sim_scale --smoke --check

echo "== policy conformance (all five PeriodicScaler impls) =="
# Trait-level property suite: same-seed determinism, floor/capacity
# bounds, no NaN/inf quotas under adversarial traces, quiescence
# idempotence, forgotten containers, microsim pool conservation — for
# Static, Autopilot, VPA, tiny autoscaler and ARC-V alike.
cargo test -q --test policy_conformance

echo "== parallel sweep identity (parallel vs serial, byte-for-byte) =="
# The matrix experiments run on the parallel sweep runner; --serial re-runs
# the same grid serially and fails unless the JSON dumps are identical.
# table1 covers the enlarged 5-policy matrix (tiny + ARC-V rows with the
# cost columns) on 4 workers vs the serial reference.
cargo run -q -p escra-bench --release -- report_period_sweep --smoke --serial
cargo run -q -p escra-bench --release -- table1_summary --smoke --serial --threads 4

echo "== baseline serverless + trace cost smoke (tiny / ARC-V / Escra) =="
# Both OpenWhisk-style apps and a trace mega-mix smoke under the
# baseline-scaler modes, with the cost-efficiency columns.
cargo run -q -p escra-bench --release -- baseline_serverless --smoke

echo "== trace dump smoke (decision trace + exposition) =="
# trace_dump replays a fixed-seed faulty scenario with every component
# recording trace events; it fails if a recorder wraps or the scenario
# no longer exercises the OOM-grant path.
cargo run -q -p escra-bench --release -- trace_dump

echo "== trace mega smoke (10k traced apps vs committed baseline, serial-vs-t4 byte-identity) =="
# The trace-driven mega-scenario: 10,000 synthetic Azure-shaped apps
# (one Distributed Container each) across 16 shards with jittered
# batched telemetry. --serial re-runs the grid serially and fails unless
# the shard summaries are byte-identical; --check fails on a >2x
# throughput regression vs BENCH_trace.json. The cmp re-asserts the
# identity across separate processes (threads=1 vs threads=4 dumps).
cargo run -q -p escra-bench --release -- trace_mega --smoke --check --serial --threads 1
cargo run -q -p escra-bench --release -- trace_mega --smoke --threads 4
cmp target/escra-results/trace_mega_serial.shards.json \
    target/escra-results/trace_mega_t4.shards.json

echo "== model check (exhaustive, pinned state counts, mutations caught) =="
# mc_explore explores every schedule (reorder + drop + duplicate + OOM +
# timer branching) of four bounded control-plane configurations: all
# must verify clean with BFS == DFS on the exact pinned state counts,
# and the two seeded protocol mutations must each be caught with a
# replayable counterexample.
cargo run -q -p escra-bench --release -- mc_explore --smoke

echo "== clippy (workspace, deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt =="
cargo fmt --check

echo "ALL CHECKS PASSED"
