#!/usr/bin/env bash
# Every workload, untraced (end-to-end metrics) then traced (per-layer
# metrics), one process at a time.  Usage: bash perfbench/all.sh [seed] [seconds]
set -euo pipefail
seed="${1:-1}"
seconds="${2:-30}"
cd "$(dirname "$0")/.."
for workload in enumerate-grid dim-report certify-queries; do
  for trace in 0 1; do
    echo "== $workload trace=$trace"
    python3 perfbench/run.py --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace "$trace" | tail -n 2
  done
done
