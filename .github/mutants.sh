#!/usr/bin/env bash
# The mutant kill matrix. Each test/mutants/*.patch plants one small bug
# on the failover path. This script applies the patches one at a time to
# a git worktree of HEAD and, on each patched tree, runs the test suite
# and each checker's CI command, each on its own:
#
#   bash .github/mutants.sh
#
# A cell reads "killed" when its command exits 1 (a failing test, a
# counterexample) and "survived" when it exits 0. Every killed checker
# cell is replayed through .github/replay-reproduce.sh, and the pinned
# counterexamples below print their shrunk reports. The matrix and those
# reports land in mutants-out/matrix, each command's output beside it.
# The script exits 1 when they differ from test/mutants/expected (whose
# `#` lines are notes), when a patch no longer applies or builds, or
# when a replay fails. It checks the committed tree: commit first.
set -euo pipefail

if [ "$#" -ne 0 ]; then
  echo "usage: bash .github/mutants.sh" >&2
  exit 2
fi

head="$(git rev-parse --show-toplevel)"
out="$head/mutants-out"
rm -rf "$out"
mkdir -p "$out"

# Outside this checkout, so this side's dune never sees a second project.
tree="$(mktemp -d)/mutants"
git -C "$head" worktree add --detach --quiet "$tree" HEAD
trap 'git -C "$head" worktree remove --force "$tree"; rm -rf "$(dirname "$tree")"' EXIT
cd "$tree"

# The property tests draw a fresh seed on every run unless given one; a
# fixed one keeps the tests column reproducible.
export QCHECK_SEED=1

# Each checker's CI command (.github/workflows/ci.yml, fixed seeds only),
# one run per element.
check_runs=("check --seed 1 --schedules 250" "check --seed 42 --schedules 250"
  "check --seed 1234 --schedules 250")
topo_runs=("topo-check --seeds 101,102,103")
ribscale_runs=("ribscale-check --seed 7 --schedules 3 --entries 60000 --peers 100")

# Counterexamples pinned byte for byte, as "mutant|sc_lab arguments":
# the seed-7 skipped rewrite, a check seed that fails on a later
# schedule (15, on its 8th), and a ribscale seed that fails on its
# second schedule, whose table still comes from the matrix seed.
pins=("skip-rewrite|check --seed 7 --schedules 100"
  "skip-rewrite|check --seed 15 --schedules 25"
  "stale-route|ribscale-check --seed 2 --schedules 6 --peers 2 --entries 20 --events 1")

fail() {
  echo "::error title=mutants::$*" >&2
  exit 1
}

# run LOG CMD...: runs CMD with its output in LOG and sets [verdict] to
# killed (exit 1) or survived (exit 0); any other exit is an error.
run() {
  local log="$1" code=0
  shift
  "$@" >"$log" 2>&1 || code=$?
  case "$code" in
    0) verdict=survived ;;
    1) verdict=killed ;;
    *) fail "$* exited $code (see $log)" ;;
  esac
}

# replay LOG ARGS: replay-reproduce.sh on the sc_lab command ARGS.
replay() {
  # shellcheck disable=SC2086 # ARGS is a list of arguments
  bash .github/replay-reproduce.sh $2 >"$1" 2>&1 \
    || fail "the reproduce line of sc_lab $2 does not replay (see $1)"
}

# cell MUTANT NAME RUNS...: one checker column, killed when any run is.
cell() {
  local mutant="$1" name="$2" i=0 killed=""
  shift 2
  for args in "$@"; do
    i=$((i + 1))
    # shellcheck disable=SC2086 # args is a list of arguments
    run "$out/$mutant/$name-$i.log" opam exec -- dune exec bin/sc_lab.exe -- $args
    if [ "$verdict" = killed ] && [ -z "$killed" ]; then killed="$args"; fi
  done
  if [ -n "$killed" ]; then
    replay "$out/$mutant/$name-replay.log" "$killed"
    verdict=killed
  else
    verdict=survived
  fi
}

row() { printf '%-20s %-9s %-9s %-11s %s\n' "$@"; }

matrix="$out/matrix"
pinned="$out/pinned"
row mutant tests check topo-check ribscale-check >"$matrix"
: >"$pinned"
echo "building HEAD in $tree" >&2
opam exec -- dune build @all 2>"$out/build.log" || fail "HEAD does not build (see $out/build.log)"
for patch in test/mutants/*.patch; do
  mutant="$(basename "$patch" .patch)"
  mkdir -p "$out/$mutant"
  git reset --hard --quiet HEAD
  git apply "$patch" || fail "$patch no longer applies to HEAD"
  opam exec -- dune build @all 2>"$out/$mutant/build.log" \
    || fail "$patch no longer builds (see $out/$mutant/build.log)"
  run "$out/$mutant/tests.log" opam exec -- dune runtest
  tests="$verdict"
  cell "$mutant" check "${check_runs[@]}"
  check="$verdict"
  cell "$mutant" topo-check "${topo_runs[@]}"
  topo="$verdict"
  cell "$mutant" ribscale-check "${ribscale_runs[@]}"
  ribscale="$verdict"
  row "$mutant" "$tests" "$check" "$topo" "$ribscale" | tee -a "$matrix" >&2
  for pin in "${pins[@]}"; do
    [ "${pin%%|*}" = "$mutant" ] || continue
    args="${pin#*|}"
    log="$out/$mutant/pin-$(echo "$args" | tr -c 'a-z0-9\n' '-').log"
    replay "$log" "$args"
    {
      echo
      echo "$mutant: sc_lab $args"
      # The original run's report, from its shrunk schedule on.
      awk '/^shrunk to/ { p = 1 } p { print } p && /^reproduce:/ { exit }' "$log"
    } >>"$pinned"
  done
done
git reset --hard --quiet HEAD
cat "$pinned" >>"$matrix"
cat "$matrix"
if ! diff -u <(grep -v '^#' test/mutants/expected) "$matrix" >"$out/diff"; then
  cat "$out/diff" >&2
  fail "the kill matrix differs from test/mutants/expected"
fi
echo "the kill matrix matches test/mutants/expected" >&2
