#!/usr/bin/env bash
# One line of the committed performance trajectory (ROADMAP item 1).
#
#   scripts/history.sh                                  run benchmark/run.sh --trace on HEAD, append
#   scripts/history.sh --results FILE [--commit REV]    append from an existing results.json
#
# Appends one JSON line to BENCH_history.jsonl at the repository root: the
# commit measured, "source":"measured", per workload the median, q1 and q3
# of the three end-to-end metrics, and the headline layer rows (median and
# min-max over the six per-workload layers steps). The commit is HEAD
# unless --commit names the one an existing results.json was measured on
# (e.g. an exported checkout). A smoke run, or one without the layers
# step, is refused; so is measuring a tree with uncommitted changes.
# Lines marked "source":"prose" were written by hand from the tables in
# EXPERIMENTS.md ("label" and "quoted" say which): same keys, but a figure
# the table gave as min-max carries min/max instead of q1/q3, and one it
# did not give is absent.
set -euo pipefail
cd "$(dirname "$0")/.."

results= rev=
while [ $# -gt 0 ]; do
  case $1 in
    --results) results=${2:?--results needs a file}; shift 2 ;;
    --commit) rev=${2:?--commit needs a revision}; shift 2 ;;
    *) sed -n '2,13p' "$0" >&2; exit 2 ;;
  esac
done
if [ -z "$results" ]; then
  [ -z "$rev" ] || { echo "history.sh: --commit names the commit of --results" >&2; exit 2; }
  [ -z "$(git status --porcelain --untracked-files=no -- . ':!BENCH_history.jsonl')" ] ||
    { echo "history.sh: uncommitted changes; commit first, or pass --results and --commit" >&2; exit 1; }
  benchmark/run.sh --trace >&2
  results=benchmark/out/results.json
fi
commit=$(git rev-parse --verify "${rev:-HEAD}^{commit}")

jq -c --arg commit "$commit" '
  if .smoke then error("a smoke run is not a measurement") else . end
  | if (.layers // {}) == {} then error("no layers step: run benchmark/run.sh --trace") else . end
  | def quartiles: {median, q1, q3};
    def spread(name):
      [.layers[] | .metrics[name].value | select(. != null)] | sort
      | {median: (if length % 2 == 1 then .[length / 2 | floor]
                  else (.[length / 2 - 1] + .[length / 2]) / 2 end),
         min: .[0], max: .[-1], n: length};
    . as $run
  | {commit: $commit, source: "measured", seed, nproc,
     failed: ([.workloads[].failed] | add),
     workloads: (.workloads | map_values(.metrics
       | {work_per_s: (.work_per_s | quartiles),
          peak_rss_mb: (.peak_rss_mb | quartiles),
          setup_s: (.setup_s | quartiles)})),
     layers: (reduce ("net.live_vs_sim_ratio", "net.cluster_step_ns_n8",
                      "net.loopback_sendrecv_ns", "net.udp_recv_empty_ns",
                      "monitor.overhead_pct_n8", "mck.bfs_states_per_s",
                      "mck.dfs_states_per_s", "mck.parallel_states_per_s",
                      "mck.packed_states_per_s") as $row
                ({}; .[$row] = ($run | spread($row)))),
     peak_store_bytes: .workloads.mck_scale.metrics.peak_store_bytes.median}
' "$results" >>BENCH_history.jsonl
echo "BENCH_history.jsonl += ${commit:0:7}" >&2
