#!/usr/bin/env bash
# The repository's benchmark: builds benchmark/ (a cargo package of its
# own) and runs it.
#
#   benchmark/run.sh                    all six workloads -> benchmark/out/results.json
#   benchmark/run.sh --trace            ... plus the layers step and the traced rounds
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#                                       one workload; the last line is one JSON object
#   benchmark/run.sh --smoke            same code paths, a few seconds, no meaning
#   benchmark/run.sh --compare A.json B.json
#   benchmark/run.sh --list
#
# Output and trace files land in benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."

# Share the repository's target/ so the dependency crates' cold build is
# paid once; a caller's CARGO_TARGET_DIR wins.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

start=$(date +%s%N)
cargo build --offline --release --quiet --manifest-path benchmark/Cargo.toml
# Compile time is reported, never gated.
ms=$(( ($(date +%s%N) - start) / 1000000 ))
printf 'build_s %d.%03d s\n' $((ms / 1000)) $((ms % 1000))

exec "$CARGO_TARGET_DIR/release/hb-benchmark" "$@"
