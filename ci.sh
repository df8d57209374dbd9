#!/usr/bin/env bash
# Repo CI gate: formatting, lints (warnings are errors), full test suite.
# Runs fully offline; the bench crate is a standalone workspace and is
# covered only when its registry dependencies are available.
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
# the fig3/fig8 grids against their pre-refactor goldens, at two worker
# counts.
GEMINI_JOBS=2 cargo test --offline -q -p gemini-harness --test layer_parity

echo "== fast-forward + batching parity (GEMINI_JOBS=2) =="
# DESIGN.md §13, §14 and §16: every registry scenario with fast-forward
# on vs off AND with hit-run batching on vs off, the reused-VM chain,
# the seed × workload sweep, a collocated pair, the fleet lifecycle
# grid at jobs 1/2/4, and a recorded-trace replay through both batch
# settings — all must produce byte-identical RunResults.
GEMINI_JOBS=2 cargo test --offline -q -p gemini-harness --test ff_parity

echo "== VM lifecycle churn properties (GEMINI_JOBS=2) =="
# DESIGN.md §14: DetRng-seeded create/run/destroy interleavings — every
# departure leaves the buddy invariants (index == rescan) intact, a
# drained host is byte-identical to a fresh one, and the fleet driver's
# reclaimed-frame accounting matches the teardowns.
GEMINI_JOBS=2 cargo test --offline -q -p gemini-harness --test fleet_lifecycle

echo "== cargo doc (workspace, no-deps, -D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline -q

echo "== demo-scale timing (bench trajectory) =="
# Wall-clock of one demo-scale compare per jobs count. Parse the
# "timing:" lines into BENCH_*.json to track the executor's speedup.
BIN=target/release/gemini-sim
cargo build --release --offline -q -p gemini-harness --bin gemini-sim
for jobs in 1 0; do
    start=$(date +%s%N)
    "$BIN" compare --workload Redis --scale demo --fragmented --jobs "$jobs" \
        > /dev/null
    end=$(date +%s%N)
    echo "timing: demo compare jobs=$jobs wall_ms=$(( (end - start) / 1000000 ))"
done

echo "== end-to-end fast-path parity (gemini-sim parity, GEMINI_JOBS=2) =="
# The CLI parity mode runs the default (fast-forward + batching),
# --no-batch and --no-ff paths back-to-back and diffs the results — a
# user-facing smoke test on top of the ff_parity suite.
GEMINI_JOBS=2 "$BIN" parity --workload Redis --scale quick --fragmented --jobs 2 > /dev/null
echo "parity: default / --no-batch / --no-ff identical (registry + fleet hosts)"

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

echo "== bench report + perf gate (quick scale, BENCH_quick.json) =="
# The full bench harness at quick scale: reference-cell speedup vs the
# recorded pre-PR-4 baseline, per-cell fig3 timings with phase
# breakdowns, and a jobs sweep; then the perf-regression gate against
# the previous run's report when one exists (the first run has nothing
# to compare against). Warn-only: wall-clock timings on shared hosts
# are noisy, so regressions are reported, not fatal — on a quiet
# benchmarking host drop --warn-only to make it a hard gate. The committed BENCH_pr*.json
# trajectory files (demo scale) are artifacts and are left untouched.
COMPARE=()
if [ -f BENCH_quick.json ]; then
    mv BENCH_quick.json BENCH_prev_quick.json
    COMPARE=(--compare BENCH_prev_quick.json --warn-only)
fi
"$BIN" bench --scale quick --jobs 2 --json BENCH_quick.json \
    --profile trace_quick.json "${COMPARE[@]}"
rm -f BENCH_prev_quick.json
echo "bench report written to BENCH_quick.json"

echo "== profile smoke check (trace_quick.json) =="
# The Perfetto trace must exist, be non-empty, look like a
# Chrome-trace-event document, and carry the batch counter tracks.
test -s trace_quick.json
grep -q '"traceEvents"' trace_quick.json
grep -q '"tlb.batched_hits"' trace_quick.json
echo "trace written to trace_quick.json ($(wc -c < trace_quick.json) bytes)"

echo "CI gate passed."
