#!/usr/bin/env bash
# Pre-merge gate: formatting and lints (the workspace and perfbench),
# docs, tests, fault injection, the panic-free-library and protocol
# gates, live smokes of the daemon, a cluster and the open-loop
# bencher, a run of the custodian example (whose asserts check
# Theorem 2 after an anti-monotone verified encode), and a short
# correctness run of every workload of the repository benchmark
# (BENCHMARK.json, perfbench/). A clean exit is the merge bar
# (referenced from README "Tests and benchmarks").
set -euo pipefail
cd "$(dirname "$0")/.."
# perfbench is a workspace of its own; building it into the
# workspace's target lets perfbench/run.sh reuse the release `ppdt`
# the smokes below build.
export CARGO_TARGET_DIR=target

echo "== cargo fmt --check (workspace, perfbench)"
cargo fmt --all --check
cargo fmt --manifest-path perfbench/Cargo.toml --check

echo "== cargo clippy (warnings denied; workspace, perfbench)"
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "== cargo doc (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== cargo test"
cargo test --workspace -q

echo "== fault injection"
cargo test -p ppdt-transform --test fault_injection -q

echo "== panic gate (library code must use typed errors)"
python3 scripts/panic_gate.py

echo "== protocol gate (docs/PROTOCOL.md matches the serve router)"
python3 scripts/protocol_gate.py --self-check
python3 scripts/protocol_gate.py

echo "== serve daemon smoke (healthz, encode/classify round-trip, SIGTERM)"
cargo build --release -q -p ppdt-cli
python3 scripts/serve_smoke.py target/release/ppdt

echo "== custodian example (anti-monotone verified encode, key through disk, Theorem 2 asserted)"
cargo run --release -q --example custodian_workflow

echo "== repository benchmark (perfbench self-tests; every workload untraced and traced, checked not timed)"
cargo test --manifest-path perfbench/Cargo.toml -q
for workload in serve-hot serve-churn custodian-batch; do
  for trace in 0 1; do
    result="$(bash perfbench/run.sh --workload "$workload" --seed 1 --seconds 2 --trace "$trace" | tail -n 1)"
    echo "$workload trace=$trace: $result"
    python3 -c 'import json, sys; r = json.loads(sys.argv[1]); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else "a wrong or failed answer")' "$result"
  done
done

echo "== cluster smoke (3-node convergence, SIGKILL failover, zero lost answers)"
python3 scripts/cluster_smoke.py target/release/ppdt

echo "== bencher smoke (open-loop low-rate run: achieved rate, CSV/JSON shape)"
cargo build --release -q -p ppdt-bencher
python3 scripts/bencher_smoke.py target/release/ppdt target/release/ppdt-bencher

echo "== all checks passed"
