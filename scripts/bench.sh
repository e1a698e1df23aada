#!/usr/bin/env bash
# The paper's tables and figures, runnable locally: every bench target of
# the `bench` crate. Performance lives in `benchmark/` and its trajectory
# in BENCH_history.jsonl (scripts/history.sh appends a line).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo bench (paper tables and figures)"
cargo bench -p bench
