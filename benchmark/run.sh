#!/usr/bin/env bash
# Builds iced-serviced, iced-routerd and the benchmark from this checkout
# (release profile, into $CARGO_TARGET_DIR, default .bench_build), then
# runs the benchmark with the given arguments from the checkout root.
#
#   bash benchmark/run.sh --workload cold-compile --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr, so the last line of stdout stays the
# benchmark's result line.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet -p iced-service --bins >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
