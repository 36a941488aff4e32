#!/bin/sh
# Regressions of `kondo run` on a weak CS1 debloat, where the valuation
# 1,2 reads carved-away data:
#   - a DATA MISSING run exits 1, but only after writing --metrics and
#     --stats-json;
#   - a local run (no --remote, no --remote-store) writes --stats-json;
#   - no run, local or --remote, leaves anything in $TMPDIR (a run
#     used to leave a copy of the data file there).
#
# usage: test/cli/run_regressions.sh KONDO_EXE
set -eu
K=$1
T=$(mktemp -d)
trap 'rm -rf "$T"' EXIT
fail() { echo "run_regressions: $*" >&2; exit 1; }
"$K" mkdata -p CS1 "$T/full.kh5" > /dev/null
"$K" debloat -p CS1 --max-iter 5 "$T/full.kh5" "$T/weak.kh5" > /dev/null
mkdir "$T/tmp"
empty_tmp() { [ -z "$(ls -A "$T/tmp")" ] || fail "$1 left $(ls "$T/tmp") in TMPDIR"; }

status=0
TMPDIR="$T/tmp" "$K" run -p CS1 --params 1,2 "$T/weak.kh5" \
  --metrics "$T/miss.prom" --stats-json "$T/miss.json" > "$T/miss.txt" || status=$?
[ "$status" -eq 1 ] || fail "a DATA MISSING run exited $status, not 1"
grep -q '^DATA MISSING' "$T/miss.txt" || fail "no DATA MISSING line"
[ -f "$T/miss.prom" ] || fail "a DATA MISSING run wrote no --metrics file"
grep -q '^kondo_runtime_misses_total 1$' "$T/miss.prom" || fail "--metrics lacks the miss"
[ -f "$T/miss.json" ] || fail "a DATA MISSING run wrote no --stats-json file"
grep -q '"misses": 1' "$T/miss.json" || fail "--stats-json lacks the miss"
empty_tmp "a DATA MISSING run"

TMPDIR="$T/tmp" "$K" run -p CS1 --params 1,2 "$T/full.kh5" --stats-json "$T/local.json" \
  > /dev/null
[ -f "$T/local.json" ] || fail "a local run ignored --stats-json"
grep -q '"misses": 0' "$T/local.json" || fail "a local run's --stats-json shows misses"
empty_tmp "a local run"

TMPDIR="$T/tmp" "$K" run -p CS1 --params 1,2 "$T/weak.kh5" --remote "$T/full.kh5" > /dev/null
empty_tmp "a --remote run"
