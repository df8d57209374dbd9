#!/usr/bin/env bash
# Repo CI gate: formatting, lints (warnings are errors), full test suite,
# the benchmark's contract tests and CLI smoke runs. Runs fully offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, -D warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo test (workspace) =="
cargo test --workspace --offline -q

echo "== parallel determinism (GEMINI_JOBS=2) =="
# The determinism suite compares jobs=1 against jobs=4 by default; run it
# once more pinned to two workers so CI exercises a distinct jobs count.
GEMINI_JOBS=2 cargo test --offline -q -p gemini-harness --test parallel_determinism

echo "== layer parity + golden byte-identity (GEMINI_JOBS=2) =="
# Same policy through the guest and host LayerEngine instantiations, and
# the fig3, fig8, collocated and fleet goldens (tests/golden/) at two
# worker counts.
GEMINI_JOBS=2 cargo test --offline -q -p gemini-harness --test layer_parity

echo "== fast-forward + batching parity (GEMINI_JOBS=2) =="
# DESIGN.md §13, §14 and §16: every registry scenario on the fast path
# (fast-forward + hit-run batching) vs --no-ff (faithful, no batching),
# the reused-VM chain, the seed × workload sweep, a collocated pair,
# the fleet lifecycle grid at jobs 1/2/4, and a recorded-trace replay
# through both paths — all must produce byte-identical RunResults.
GEMINI_JOBS=2 cargo test --offline -q -p gemini-harness --test ff_parity

echo "== VM lifecycle churn properties (GEMINI_JOBS=2) =="
# DESIGN.md §14: DetRng-seeded create/run/destroy interleavings on clean
# and fragmented hosts — every departure leaves the buddy invariants
# (index == rescan) intact, a drained host is byte-identical to a fresh
# one, teardown index work is bounded by the VM's frames, and the fleet
# driver's reclaimed-frame accounting matches the teardowns.
GEMINI_JOBS=2 cargo test --offline -q -p gemini-harness --test fleet_lifecycle

echo "== cargo doc (workspace, no-deps, -D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline -q

BIN=target/release/gemini-sim
cargo build --release --offline -q -p gemini-harness --bin gemini-sim

echo "== end-to-end fast-path parity (gemini-sim parity, GEMINI_JOBS=2) =="
# The CLI parity mode runs the default (fast-forward + batching) and
# --no-ff (faithful, no batching) paths back-to-back and diffs the results — a
# user-facing smoke test on top of the ff_parity suite.
GEMINI_JOBS=2 "$BIN" parity --workload Redis --scale quick --fragmented --jobs 2 > /dev/null
echo "parity: default / --no-ff identical (registry + fleet hosts)"

echo "== fleet lifecycle smoke (demo scale, GEMINI_JOBS=2) =="
# The long-horizon arrival/departure scenario end to end: >= 100 VM
# lifecycles per system at demo scale, first-fit packed over four
# hosts, every VM torn down through the leak-checked remove_vm path.
GEMINI_JOBS=2 "$BIN" fleet --scale demo --jobs 2 > /dev/null
echo "fleet: demo-scale lifecycle grid drained leak-free"

echo "== record/replay smoke (quick scale, GEMINI_JOBS=2) =="
# DESIGN.md §15 end to end through the CLI: record a quick fragmented
# Redis run to a gemini-trace-v1 file, replay it through the same
# scenario, and require the two --json exports byte-identical. Both
# filenames match the ignored *.jsonl pattern, so nothing leaks into
# the tree.
GEMINI_JOBS=2 "$BIN" record --workload Redis --scale quick --fragmented \
    --trace trace_quick.jsonl --json record_quick.jsonl > /dev/null
GEMINI_JOBS=2 "$BIN" replay --trace trace_quick.jsonl --system GEMINI \
    --json replay_quick.jsonl > /dev/null 2> /dev/null
cmp record_quick.jsonl replay_quick.jsonl
rm -f trace_quick.jsonl record_quick.jsonl replay_quick.jsonl
echo "record/replay: replayed run byte-identical to the recorded one"

echo "== benchmark contract tests (perfbench/) =="
# The benchmark is its own Cargo package outside the workspace, so the
# workspace test run above does not reach its tests.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "== span profiler (quick scale, trace_quick.json) =="
# The fig. 3 grid under the span profiler: per-phase table on stdout,
# Perfetto timeline to trace_quick.json.
"$BIN" profile --scale quick --jobs 2 --profile trace_quick.json

echo "== profile smoke check (trace_quick.json) =="
# The Perfetto trace must exist, be non-empty, look like a
# Chrome-trace-event document, and carry the batch counter tracks.
test -s trace_quick.json
grep -q '"traceEvents"' trace_quick.json
grep -q '"tlb.batched_hits"' trace_quick.json
echo "trace written to trace_quick.json ($(wc -c < trace_quick.json) bytes)"

echo "CI gate passed."
