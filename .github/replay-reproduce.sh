#!/usr/bin/env bash
# Runs an sc_lab checker command that must find a counterexample (exit
# 1), then the "reproduce:" command its failure report prints, which
# must fail too, and fails unless the replay shrinks to the same
# counterexample: the same shrunk schedule, violations and reproduce
# line. Run it from the tree to check, e.g. one with
# test/mutants/skip-rewrite.patch applied:
#
#   bash .github/replay-reproduce.sh check --seed 7 --schedules 100
set -euo pipefail

sc_lab() { opam exec -- dune exec bin/sc_lab.exe -- "$@"; }
# The report from its shrunk schedule to its reproduce line.
shrunk() { awk '/^shrunk to/ { p = 1 } p { print } p && /^reproduce:/ { exit }' "$1"; }

# fails LOG ARGS...: runs sc_lab ARGS, teeing its report to LOG, and
# fails unless it exits 1 with a counterexample.
fails() {
  local log="$1" code=0
  shift
  sc_lab "$@" >"$log" || code=$?
  cat "$log"
  if [ "$code" -ne 1 ]; then
    echo "::error title=reproduce line::sc_lab $* exited $code, want 1 (a counterexample)" >&2
    exit 1
  fi
}

out="$(mktemp)"
replay="$(mktemp)"
trap 'rm -f "$out" "$replay"' EXIT
fails "$out" "$@"
cmd="$(sed -n 's/^reproduce: sc_lab //p' "$out")"
if [ -z "$cmd" ]; then
  echo "::error title=reproduce line::the failure report prints no reproduce line" >&2
  exit 1
fi
echo "replaying: sc_lab $cmd"
# shellcheck disable=SC2086 # the reproduce line is a list of arguments
fails "$replay" $cmd
if [ -z "$(shrunk "$out")" ] || ! diff <(shrunk "$out") <(shrunk "$replay") >&2; then
  echo "::error title=reproduce line::the replay shrinks to a different counterexample" >&2
  exit 1
fi
echo "reproduce line replays the counterexample ($(grep -o -m 1 'shrunk to [0-9]* events' "$out"))"
