#!/usr/bin/env bash
# Records the A3 §6 block-store baseline (the treap inside the bounded
# queue, per process count: amortized and worst steps, tree depth, live
# bytes per block) as BENCH_a3.json so the perf trajectory accumulates
# across PRs. Run from the repo root:
#
#   scripts/bench_a3.sh            # writes ./BENCH_a3.json
#   scripts/bench_a3.sh out.json   # writes to a custom path
set -euo pipefail

out="${1:-BENCH_a3.json}"

cargo bench --bench a3_block_store -- --json > "$out"
echo "wrote $out:"
head -n 6 "$out"
