#!/usr/bin/env bash
# Builds the benchmark once (release, offline) and then runs it, so build
# time never lands in `setup_s`. Arguments go to `escra-benchmark`
# unchanged; with none, the whole suite runs (`--workload all`).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/escra-benchmark" "$@"
