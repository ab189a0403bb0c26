#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload discover --seed 1 --seconds 25 --trace 0
#
# Run from the root of a source tree.  Build output goes to stderr; the
# benchmark's result is the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
