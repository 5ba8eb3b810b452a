#!/usr/bin/env bash
# Builds the `ppdt` daemon and the benchmark from source, then runs one
# workload. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 24 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the
# run's scratch key stores live under it and are removed afterwards.
set -euo pipefail

if [ ! -f Cargo.toml ] || [ ! -d crates/cli ] || [ ! -f perfbench/Cargo.toml ]; then
    echo "perfbench: run from the root of a ppdt checkout (Cargo.toml, crates/ and perfbench/)" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p ppdt-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --ppdt "$target/release/ppdt" --work "$target/perfbench/work-$$" "$@"
