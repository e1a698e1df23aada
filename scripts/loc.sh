#!/usr/bin/env bash
# The one definition of "the line count" (ROADMAP aim 2): for every
# crates/*/src/**/*.rs, lines before the file's first `#[cfg(test)]` are
# non-test, the rest are test. Printed per crate and in total; reported,
# never gated.
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src -name '*.rs' | sort | xargs awk '
  FNR == 1 {
    split(FILENAME, path, "/")
    if (path[2] != crate) order[++crates] = crate = path[2]
    in_test = 0
  }
  /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
  { if (in_test) test[crate]++; else code[crate]++ }
  END {
    printf "%-12s %9s %9s\n", "crate", "non-test", "test"
    for (i = 1; i <= crates; i++) {
      c = order[i]
      printf "%-12s %9d %9d\n", c, code[c], test[c]
      code_total += code[c]; test_total += test[c]
    }
    printf "%-12s %9d %9d\n", "total", code_total, test_total
  }'
