#!/usr/bin/env bash
# Runs an sc_lab checker mutation smoke, then the "reproduce:" command
# its failure report prints, and fails unless the replay shrinks the
# counterexample to the same number of events.
#
#   .github/replay-reproduce.sh check --mutate --seed 7 --schedules 100
set -euo pipefail

sc_lab() { opam exec -- dune exec bin/sc_lab.exe -- "$@"; }
shrunk() { grep -o -m 1 'shrunk to [0-9]* events' "$1" || true; }

out="$(mktemp)"
replay="$(mktemp)"
sc_lab "$@" | tee "$out"
cmd="$(sed -n 's/^reproduce: sc_lab //p' "$out")"
if [ -z "$cmd" ]; then
  echo "::error title=reproduce line::the failure report prints no reproduce line" >&2
  exit 1
fi
echo "replaying: sc_lab $cmd"
# shellcheck disable=SC2086 # the reproduce line is a list of arguments
sc_lab $cmd | tee "$replay"
want="$(shrunk "$out")"
got="$(shrunk "$replay")"
if [ -z "$want" ] || [ "$want" != "$got" ]; then
  echo "::error title=reproduce line::original run '$want', replay '$got'" >&2
  exit 1
fi
echo "reproduce line replays the counterexample ($got)"
