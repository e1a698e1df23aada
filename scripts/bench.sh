#!/usr/bin/env bash
# The evaluation suite, runnable locally: every bench target of the
# `bench` crate (the paper's tables and figures), then a chaos campaign
# over the fault grid, leaving its JSON report in BENCH_chaos.json.
# Each grid cell runs quiet / crash / crash+revive, so the report also
# carries the two-sided §7 re-convergence sweep (reconverged,
# reconv_detect_mean/max, stabilised, reconv_stable_mean/max,
# stale_admitted per cell).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo bench (paper tables and figures)"
cargo bench -p bench

echo "==> hot-path throughput (bare vs monitored beats/sec = monitor tap overhead, campaign cells/sec)"
# cargo bench runs with the package as cwd, so hand it an absolute path.
cargo bench -p bench --bench throughput -- "$PWD/BENCH_throughput.json"

echo "==> mck scale (states/sec and peak frontier bytes per reduction stack, n up to 8)"
cargo bench -p bench --bench mck_states -- "$PWD/BENCH_mck.json"

echo "==> chaos campaign (sim backend)"
cargo run --release --example chaos_campaign -- --out BENCH_chaos.json --table

echo "benchmarks done; campaign report in BENCH_chaos.json, throughput and monitor overhead in BENCH_throughput.json, checker scaling in BENCH_mck.json"
