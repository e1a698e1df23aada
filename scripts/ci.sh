#!/usr/bin/env bash
# The full CI gate, runnable locally: build, tests, lints, formatting.
set -euo pipefail
cd "$(dirname "$0")/.."

# The tracked tree must come out of CI as it went in (the last step
# checks), so a test or example that rewrites a golden under artifacts/
# fails. benchmark/Cargo.lock is left out: every benchmark build rewrites
# it until that lock file is refreshed (ROADMAP item 1).
tree_status() { git status --porcelain -- . ':(exclude)benchmark/Cargo.lock'; }
if git rev-parse --git-dir >/dev/null 2>&1; then
  tree_before=$(tree_status)
else
  echo "warning: not a git checkout; the tracked tree is not checked after the run" >&2
fi

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> benchmark smoke + layers step (compiles benchmark/ against the façade; its correctness checks must count zero failures)"
# benchmark/ is its own cargo package, so no other step compiles it: this
# is the gate that catches a refactor breaking the surface it imports.
# --trace adds the layers step and the traced rounds, so the must-be-zero
# layer counts (net.wire_reject_accepted, net.udp_*_errors,
# monitor.violations, verify.stack_disagreements) and the
# TracedTransport<LoopbackEndpoint> path gate too.
# It shares target/ with the release build above.
benchmark/run.sh --smoke --trace >/dev/null

echo "==> benchmark package tests (unit + contract; a separate workspace the root cargo test cannot see)"
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}" \
  cargo test --offline --release --manifest-path benchmark/Cargo.toml -q

echo "==> cargo test"
cargo test --workspace -q

echo "==> allocation counts in the optimised build (a successor, a warmed-up World and a warmed-up VirtualCluster allocate nothing)"
# tests/alloc_free.rs ran above in the debug build; the claim is about
# the release binary the benchmark times, so it runs there too.
cargo test --release --test alloc_free -q

echo "==> hb-net unit tests in the optimised build (overflow wraps, debug_asserts off: the build the benchmark times)"
# The cluster's stepping-equivalence grid, cache checks and fork tests ran
# above in the debug build; the benchmark times the release one.
cargo test --release -p hb-net -q

echo "==> hb-member unit tests in the optimised build (overflow wraps, debug_asserts off: the build the benchmark times)"
# The engine's due-only tick against its full-scan reference, the wake-tick
# checks and the jumped-over count ran above in the debug build.
cargo test --release -p hb-member -q

echo "==> chaos smoke campaign (seed-pinned, injector determinism, sim + live backends)"
# Both backends fork each seed's runs at the crash tick; the report must
# not depend on how many workers ran the cells.
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
for backend in sim live; do
  cargo run --release --example chaos_campaign -- --smoke --backend "$backend" \
    --out "$tmpdir/a_$backend.json" >/dev/null
  cargo run --release --example chaos_campaign -- --smoke --backend "$backend" --threads 1 \
    --out "$tmpdir/b_$backend.json" >/dev/null
  diff "$tmpdir/a_$backend.json" "$tmpdir/b_$backend.json" \
    || { echo "chaos campaign ($backend) is not deterministic" >&2; exit 1; }
done

echo "==> §7 crash/revive rejoin demo (seed-pinned, sim + live backends)"
# Emits rejoin_{sim,live}.json twice; the emitter itself fails unless the
# naive/epoch separation holds and in-process replay is byte-identical,
# and the diffs pin determinism across whole invocations and the
# example's emission path against the checked-in goldens.
cargo run --release --example chaos_campaign -- --rejoin "$tmpdir/rejoin_a" >/dev/null
cargo run --release --example chaos_campaign -- --rejoin "$tmpdir/rejoin_b" >/dev/null
diff -r "$tmpdir/rejoin_a" "$tmpdir/rejoin_b" \
  || { echo "crash/revive rejoin demo is not deterministic" >&2; exit 1; }
diff "$tmpdir/rejoin_a/rejoin_sim.json" artifacts/rejoin_sim.json \
  || { echo "rejoin sim artifact drifted from the checked-in golden" >&2; exit 1; }
diff "$tmpdir/rejoin_a/rejoin_live.json" artifacts/rejoin_live.json \
  || { echo "rejoin live artifact drifted from the checked-in golden" >&2; exit 1; }

echo "==> monitor gate (streaming R1–R3 verdicts on the smoke grid)"
# With --monitor every cell carries online verdicts; the gate inside the
# example fails unless corrected-bounds cells are clean and under-corrected
# cells reproduce the R1 breach.
cargo run --release --example chaos_campaign -- --smoke --monitor >/dev/null

echo "==> offline monitor (hb_monitor --emit, then --log replay; --live --member)"
# The seed-1 binary crash log (crash at t=300): under the claimed bound the
# replay must report R1 at the 2·tmax deadline, under the full fix it must
# be clean. A two-participant static log replayed at the default --n 1
# names a pid the monitor does not watch, which it must ignore.
mon=(cargo run --release --example hb_monitor --)
for fix in original full-fix; do
  "${mon[@]}" --emit "$tmpdir/mon_$fix.jsonl" --fix "$fix" 2>/dev/null
  "${mon[@]}" --log "$tmpdir/mon_$fix.jsonl" --fix "$fix" --horizon 600 2>/dev/null |
    tail -n 1 > "$tmpdir/mon_$fix.json"
done
grep -qF '"r1":{"pid":1,"at":315,"bound":16}' "$tmpdir/mon_original.json" \
  || { echo "the original-fix replay lost its R1 breach: $(cat "$tmpdir/mon_original.json")" >&2; exit 1; }
grep -qF '"clean":true' "$tmpdir/mon_full-fix.json" \
  || { echo "the full-fix replay is not clean: $(cat "$tmpdir/mon_full-fix.json")" >&2; exit 1; }
"${mon[@]}" --emit "$tmpdir/mon_n2.jsonl" --variant static --n 2 --fix original 2>/dev/null
"${mon[@]}" --log "$tmpdir/mon_n2.jsonl" --variant static --fix original >/dev/null 2>&1 \
  || { echo "replaying an n=2 log at --n 1 failed" >&2; exit 1; }
# The membership group on the loopback runtime in virtual time, with a
# shared monitor and a view watch tapping the engine's stream: the run
# exits non-zero unless failover is healthy and the monitors are clean.
"${mon[@]}" --live --member >/dev/null \
  || { echo "hb_monitor --live --member: failover unhealthy or a monitor fired" >&2; exit 1; }

echo "==> simulator examples (seeded; cluster_monitor --sim asserts a monitor-clean replay and one graceful leave)"
cargo run --release --example quickstart >/dev/null
cargo run --release --example cluster_monitor -- --sim >/dev/null

echo "==> membership failover gate (coordinator crash, sim + live, monitors clean)"
# The emitter fails unless every cell demotes the ex-coordinator, agrees
# on one view, resolves both sides of the re-convergence samples, keeps
# the R1–R3 monitors clean, and replays byte-identically in process; the
# diffs pin determinism across invocations and against the checked-in
# golden cells.
cargo run --release --example chaos_campaign -- --failover "$tmpdir/failover_a" >/dev/null
cargo run --release --example chaos_campaign -- --failover "$tmpdir/failover_b" >/dev/null
diff -r "$tmpdir/failover_a" "$tmpdir/failover_b" \
  || { echo "failover campaign is not deterministic" >&2; exit 1; }
diff "$tmpdir/failover_a/failover_sim.json" artifacts/failover_sim.json \
  || { echo "failover sim artifact drifted from the checked-in golden" >&2; exit 1; }
diff "$tmpdir/failover_a/failover_live.json" artifacts/failover_live.json \
  || { echo "failover live artifact drifted from the checked-in golden" >&2; exit 1; }

echo "==> static analyzer gate (fixed machines must be free of error findings)"
# Advisory findings (pid-concrete-guard on the member takeover) are
# reported but do not deny.
cargo run --release --example hb_analyze -- --machines fixed --deny-findings

# Pinned to one CPU, available_parallelism is 1 and both Checker and
# PackedChecker run the sequential loop; unpinned, on two or more cores,
# they run the pipeline. The gates below run both ways and diff them.
echo "==> symmetry certificate gate (census + quotient vs brute vs full on the smoke grid)"
cargo run --release --example hb_analyze -- --sym-check > "$tmpdir/sym.txt"
tail -n 1 "$tmpdir/sym.txt"
taskset -c 0 cargo run --release --example hb_analyze -- --sym-check > "$tmpdir/sym_one.txt"
diff "$tmpdir/sym_one.txt" "$tmpdir/sym.txt" \
  || { echo "the pipelined symmetry gate differs from the sequential one" >&2; exit 1; }

echo "==> POR soundness cross-check (reduced vs full verdicts, all table cells)"
# por_cross_check panics on any verdict divergence; the tail lines report
# the state savings (EXPERIMENTS.md carries the full table).
cargo run --release --example hb_analyze -- --por-check > "$tmpdir/por.txt"
tail -n 2 "$tmpdir/por.txt"
taskset -c 0 cargo run --release --example hb_analyze -- --por-check > "$tmpdir/por_one.txt"
diff "$tmpdir/por_one.txt" "$tmpdir/por.txt" \
  || { echo "the pipelined POR cross-check differs from the sequential one" >&2; exit 1; }

echo "==> scale tables: one core (sequential loop) and every core (pipeline) print the same"
# Every column but the last (ms) must match.
scale=(--scale --variants static,expanding --ns 2,4 --reqs R2)
taskset -c 0 cargo run --release --example hb_analyze -- "${scale[@]}" > "$tmpdir/scale_one.txt"
cargo run --release --example hb_analyze -- "${scale[@]}" > "$tmpdir/scale_all.txt"
diff <(awk '{$NF=""; print}' "$tmpdir/scale_one.txt") <(awk '{$NF=""; print}' "$tmpdir/scale_all.txt") \
  || { echo "the pipelined scale cells differ from the sequential ones" >&2; exit 1; }

echo "==> gm98 campaign through the example (monitored grid, sim + live, vs the checked-in pair)"
# Both backends fork each seed's runs at the crash tick, and must still
# emit the goldens byte for byte.
for backend in sim live; do
  cargo run --release --example chaos_campaign -- --backend "$backend" --monitor \
    --out "$tmpdir/campaign_gm98_$backend.json" >/dev/null
  diff "$tmpdir/campaign_gm98_$backend.json" "artifacts/campaign_gm98_$backend.json" \
    || { echo "campaign_gm98_$backend.json drifted from the checked-in golden" >&2; exit 1; }
done

echo "==> sim-vs-live campaign differ (checked-in artifact pair)"
cargo run --release --example chaos_campaign -- --diff \
  artifacts/campaign_gm98_sim.json artifacts/campaign_gm98_live.json >/dev/null

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (intra-doc links must resolve and carry no redundant target)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::redundant_explicit_links" cargo doc --workspace --no-deps

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> perf trajectory (every BENCH_history.jsonl line parses; no measured line failed)"
# scripts/history.sh appends the lines; a line is one JSON object on its own.
# A measured line must say it failed nothing: a run with failed operations
# is not a point on the trajectory.
jq -enR '[inputs | fromjson | (.commit | type == "string") and (.source | type == "string")
          and (.source != "measured" or .failed == 0)] | all' \
  BENCH_history.jsonl >/dev/null \
  || { echo "BENCH_history.jsonl has a line that is not a history record, or a measured one with failures" >&2; exit 1; }
# A squash or rebase merge rewrites the measured commit away, and an
# exported checkout has no history: say so, never fail on it.
last=$(tail -n 1 BENCH_history.jsonl | jq -r .commit)
if git rev-parse --git-dir >/dev/null 2>&1 && ! git merge-base --is-ancestor "$last" HEAD 2>/dev/null; then
  echo "warning: the last BENCH_history.jsonl line measures $last, not an ancestor of HEAD" >&2
fi

echo "==> one JSON writer (no record formatted by hand outside crates/hb-core/src/json.rs)"
# A format string opening an object ({{\") in non-test code is a record
# bypassing hb_core::json. Non-test means before a file's first
# #[cfg(test)], as scripts/loc.sh counts.
hand=$(find crates/*/src examples -name '*.rs' ! -path crates/hb-core/src/json.rs | sort |
  xargs awk 'FNR == 1 { in_test = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
    !in_test && index($0, "{{\\\"") { print FILENAME ":" FNR ": " $0 }')
if [ -n "$hand" ]; then
  echo "$hand" >&2
  echo "JSON formatted by hand: write it through hb_core::json" >&2
  exit 1
fi

echo "==> one reaction per machine event (drivers react through hb_core::react)"
# A machine handler called in non-test code outside hb-core is a reaction
# written a second time. MemberNode gives the events other meanings and
# the Figure 1-2 models split them into steps; both stay out of scope. The
# two monitors replay only the coordinator's state (CoordSpec::on_heartbeat)
# to read its leave latches and epoch bars; they react to nothing.
direct=$(find crates/*/src -name '*.rs' ! -path 'crates/hb-core/*' \
    ! -path crates/hb-member/src/node.rs ! -path crates/hb-verify/src/solo.rs \
    ! -path crates/hb-monitor/src/lib.rs ! -path crates/hb-verify/src/monitor.rs | sort |
  xargs awk 'FNR == 1 { in_test = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
    !in_test && /(on_timeout|on_heartbeat|on_beat|on_watchdog|on_join_send|revive_state)\(/ { print FILENAME ":" FNR ": " $0 }')
if [ -n "$direct" ]; then
  echo "$direct" >&2
  echo "a machine reaction called directly: go through hb_core::react" >&2
  exit 1
fi

echo "==> the live runtime does not depend on the simulator (hb-net, hb-member)"
# The adversary seam and the run record live in hb-core, so neither crate
# needs hb-sim, not even as a dev-dependency: World can then be built on
# the cluster without a cycle.
for crate in hb-net hb-member; do
  deps=$(cargo tree --offline -e normal,dev -p "$crate")
  if grep -q 'hb-sim' <<<"$deps"; then
    echo "$crate depends on hb-sim: import the seam and the record from hb-core" >&2
    exit 1
  fi
done

echo "==> line count (reported, never gated)"
scripts/loc.sh

echo "==> the tracked tree is as CI found it (benchmark/Cargo.lock aside)"
if [ -n "${tree_before+set}" ] && [ "$(tree_status)" != "$tree_before" ]; then
  diff <(echo "$tree_before") <(tree_status) >&2
  echo "a CI step changed the tracked tree (git status above: < before, > after)" >&2
  exit 1
fi

echo "CI green."
