#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with every argument
# passed through. Run it from the root of the repository:
#
#   bash bench/perf/run.sh --workload fig5-super-500k --seed 42 --seconds 8 --trace 0
#   bash bench/perf/run.sh diff before/*.json -- after/*.json
#
# dune's own output goes to standard error, so the last line of standard
# output is the benchmark's one-line JSON summary.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bench/perf/dune ]; then
  echo "run.sh: not at the root of a checkout of the repository" >&2
  exit 2
fi

dune build --root . ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
