#!/usr/bin/env bash
# Parent-vs-change pairs of benchmark workloads (choosing-metrics §8).
#
#   scripts/pairs.sh <parent-rev> <workload>[,<workload>...|all] [pairs=10] [seconds=15]
#
# The change is the working tree. <parent-rev> is exported (`git archive`,
# so neither .git nor the index is touched) into a temp dir with its own
# CARGO_TARGET_DIR; both hb-benchmark binaries are built once, whatever
# the number of workloads (`all`: every one `hb-benchmark --list` names),
# then workload by workload each pair runs both — whichever went second
# last time goes first, a fresh seed per pair — and the three end-to-end
# values are read off each run's last JSON line. Prints, per workload,
# every pair, then per metric each side's median [q1-q3], the ratio of the
# medians with its base, and the pairs the change read better in. Exits
# non-zero if any run of any workload reports a failed operation.
# PAIRS_SEED (default 1001) is the first pair's seed; TMPDIR says where
# the export and its target dir go; both are removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -ge 2 ] || { sed -n '2,4p' "$0" >&2; exit 2; }
rev=$1 workloads=$2 pairs=${3:-10} seconds=${4:-15}
seed0=${PAIRS_SEED:-1001}

change=$PWD
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
parent=$tmp/parent
mkdir "$parent"
git archive "$(git rev-parse --verify "$rev^{commit}")" | tar -x -C "$parent"

# build <root> <target-dir>: that checkout's own benchmark/ sources.
build() {
  (cd "$1" && CARGO_TARGET_DIR=$2 cargo build --offline --release --quiet \
    --manifest-path benchmark/Cargo.toml)
}
build "$parent" "$tmp/target"
build "$change" "${CARGO_TARGET_DIR:-$change/target}"
# Both sides run a copy made the same way: a freshly copied binary reads
# ~0.25 MB more peak RSS than the linker's own output file.
cp "$tmp/target/release/hb-benchmark" "$tmp/parent-bin"
cp "${CARGO_TARGET_DIR:-$change/target}/release/hb-benchmark" "$tmp/change-bin"

if [ "$workloads" = all ]; then
  workloads=$("$tmp/change-bin" --list |
    awk '/^workloads$/ { listed = 1; next } listed && !NF { exit } listed { print $1 }' |
    paste -sd, -)
fi

# run <root> <binary> <seed>: "work_per_s peak_rss_mb setup_s failed".
run() {
  (cd "$1" && "$2" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0) |
    tail -n 1 |
    sed -E 's/.*"failed":([0-9]+).*"work_per_s":\{"value":([^,]+),.*"peak_rss_mb":\{"value":([^,]+),.*"setup_s":\{"value":([^,]+),.*/\2 \3 \4 \1/'
}

# pairs_of: the pairs of $workload, then its summary; a workload with a
# failed operation in any run is added to $failed.
failed=
pairs_of() {
  local rows=$tmp/rows.$workload k seed p c
  for ((k = 0; k < pairs; k++)); do
    seed=$((seed0 + k))
    if ((k % 2 == 0)); then
      p=$(run "$parent" "$tmp/parent-bin" "$seed")
      c=$(run "$change" "$tmp/change-bin" "$seed")
    else
      c=$(run "$change" "$tmp/change-bin" "$seed")
      p=$(run "$parent" "$tmp/parent-bin" "$seed")
    fi
    echo "$p $c" >>"$rows"
    echo "pair $((k + 1)) seed $seed  parent: $p  change: $c"
  done

  echo "$workload, $pairs pairs of ${seconds} s, parent $rev (median [q1-q3]; ratio = change / parent)"
  awk '
    function quartile(v, n, q,    h, lo) {  # linear interpolation, v sorted 1..n
      h = (n - 1) * q + 1; lo = int(h)
      return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    function summary(col,    v, i, j, x) {  # sets mid; insertion sort (POSIX awk has none)
      for (i = 1; i <= NR; i++) {
        x = cell[i, col]
        for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
        v[j + 1] = x
      }
      mid = quartile(v, NR, 0.5)
      return sprintf("%.6g [%.6g-%.6g]", mid, quartile(v, NR, 0.25), quartile(v, NR, 0.75))
    }
    { for (i = 1; i <= 8; i++) cell[NR, i] = $i + 0; failed += $4 + $8 }
    END {
      split("work_per_s peak_rss_mb setup_s", name); split("1 -1 -1", higher_is_better)
      for (m = 1; m <= 3; m++) {
        won = 0
        for (i = 1; i <= NR; i++)
          if ((cell[i, m + 4] - cell[i, m]) * higher_is_better[m] > 0) won++
        p = summary(m); pm = mid; c = summary(m + 4); cm = mid
        printf "%-12s parent %s  change %s  ratio %.3f  change better in %d/%d\n",
          name[m], p, c, cm / pm, won, NR
      }
      printf "failed operations: %d\n", failed
      exit (failed > 0)
    }' "$rows" || failed+=" $workload"
}

for workload in ${workloads//,/ }; do
  pairs_of
done
[ -z "$failed" ]
