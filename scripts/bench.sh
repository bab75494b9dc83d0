#!/usr/bin/env bash
# Runs one experiment binary of the bench crate with `--json` and writes
# its output, so the perf trajectory (BENCH_*.json) accumulates across
# changes. The default output name is the target's prefix before its first
# underscore: e16_executor writes BENCH_e16.json. Run from the repo root:
#
#   scripts/bench.sh e16_executor             # writes ./BENCH_e16.json
#   scripts/bench.sh e16_executor out.json    # writes to a custom path
#
# Targets with a BENCH_*.json: e10_batch, e11_shard, e12_memory,
# e13_channel, e14_ring, e15_broker, e16_executor, a1_gc_period,
# a3_block_store.
set -euo pipefail

target="${1:?usage: scripts/bench.sh <bench-target> [out.json]}"
out="${2:-BENCH_${target%%_*}.json}"

# Only e15 runs the bench crate's `async` feature (its futures phase).
# Turning it on elsewhere would change `Signal::notify`, which E13 and
# E14 measure.
features=""
if [ "$target" = e15_broker ]; then
    features="--features async"
fi

# shellcheck disable=SC2086 # $features is empty or two words
cargo bench -p wfqueue_bench $features --bench "$target" -- --json > "$out"
echo "wrote $out:"
head -n 8 "$out"
