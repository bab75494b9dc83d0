#!/usr/bin/env bash
# Records the E11-shard throughput sweep as BENCH_e11.json so the perf
# trajectory accumulates across PRs. The sweep covers both routing
# policies: per-producer (capacity win, both variants) and nearest
# (contention-aware hint-guided scan, E11b). The binary itself asserts
# the acceptance criteria: per-producer strictly increases S=1..4, and
# nearest's S=8 holds >= 95% of its S=4.
# Run from the repo root:
#
#   scripts/bench_e11.sh            # writes ./BENCH_e11.json
#   scripts/bench_e11.sh out.json   # writes to a custom path
set -euo pipefail

out="${1:-BENCH_e11.json}"

cargo bench --bench e11_shard -- --json > "$out"
echo "wrote $out:"
head -n 6 "$out"
echo "routings recorded:"
grep -o '"routing": "[a-z-]*"' "$out" | sort -u
