#!/usr/bin/env bash
# Runs the repository benchmark (bench/perf) on REV and on this checkout,
# on the same machine, and compares the two with this checkout's differ:
#
#   bash .github/perf-diff.sh HEAD^1
#
# REV is built in a temporary git worktree. Every workload runs at its
# default seed three times on each side, the side that goes first
# alternating from one run to the next, so slow stretches of a shared
# host fall on both. The result files land in perf-diff/base/ and
# perf-diff/head/, each run's output beside its file. The exit code is
# the differ's: 1 when an end-to-end metric is worse than its
# BENCHMARK.json bound, an exact value moved the wrong way, or a run
# on this side failed its output checks.
set -euo pipefail

if [ "$#" -ne 1 ]; then
  echo "usage: bash .github/perf-diff.sh REV" >&2
  exit 2
fi
rev="$1"

head="$(git rev-parse --show-toplevel)"
cd "$head"
out="$head/perf-diff"
rm -rf "$out"
mkdir -p "$out/base" "$out/head"

# Outside this checkout, so this side's dune never sees a second project.
base="$(mktemp -d)/base"
git worktree add --detach --quiet "$base" "$rev"
trap 'git -C "$head" worktree remove --force "$base"; rm -rf "$(dirname "$base")"' EXIT

# workload:seconds, as long as each needs for a few measured blocks.
runs="fig5-super-500k:4 fig5-plain-500k:4 ctrl-churn-250k:2 dataplane:1 check-chaos:2"

run_side() {
  local side="$1" tree="$2" workload="$3" seconds="$4" rep="$5"
  echo "$side $workload run $rep" >&2
  (cd "$tree" && bash bench/perf/run.sh --workload "$workload" --seconds "$seconds" \
    --json "$out/$side/$workload-$rep.json") >"$out/$side/$workload-$rep.log" 2>&1 \
    || { cat "$out/$side/$workload-$rep.log" >&2; exit 1; }
}

turn=0
for run in $runs; do
  workload="${run%%:*}"
  seconds="${run##*:}"
  for rep in 1 2 3; do
    if [ $((turn % 2)) -eq 0 ]; then
      run_side base "$base" "$workload" "$seconds" "$rep"
      run_side head "$head" "$workload" "$seconds" "$rep"
    else
      run_side head "$head" "$workload" "$seconds" "$rep"
      run_side base "$base" "$workload" "$seconds" "$rep"
    fi
    turn=$((turn + 1))
  done
done

bash bench/perf/run.sh diff "$out"/base/*.json -- "$out"/head/*.json
