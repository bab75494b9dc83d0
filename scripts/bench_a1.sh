#!/usr/bin/env bash
# Records the A1 GC-period ablation (the G sweep at p = 4, and the fixed
# G(32) vs registered-handle G(r) sweep at a 32-process budget: steps,
# allocations, live blocks per op) with the core count as BENCH_a1.json,
# so the perf trajectory accumulates across PRs. Run from the repo root:
#
#   scripts/bench_a1.sh            # writes ./BENCH_a1.json
#   scripts/bench_a1.sh out.json   # writes to a custom path
set -euo pipefail

out="${1:-BENCH_a1.json}"

cargo bench -p wfqueue_bench --bench a1_gc_period -- --json > "$out"
echo "wrote $out:"
head -n 6 "$out"
