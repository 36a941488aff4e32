#!/bin/sh
# Prints the `read … elements`, `DATA MISSING` and `value checksum` lines,
# and the exit status, of `kondo run` over --jobs 1 debloats of PRL3D 64^3
# and CS3 512^2: each valuation runs on the debloated file alone and with
# the dense file as --remote.  The budgets are small enough that some
# valuations read carved-away data.  CI diffs the output against
# test/golden/runs.expected.
#
# usage: test/golden/runs.sh KONDO_EXE WORK_DIR
set -eu
K=$1
T=$2

"$K" mkdata -p PRL3D -m 64 "$T/prl.kh5" > /dev/null
"$K" debloat -p PRL3D -m 64 --jobs 1 --max-iter 100 "$T/prl.kh5" "$T/prl_deb.kh5" > /dev/null
"$K" mkdata -p CS3 -n 512 "$T/cs3.kh5" > /dev/null
"$K" debloat -p CS3 -n 512 --jobs 1 --max-iter 300 "$T/cs3.kh5" "$T/cs3_deb.kh5" > /dev/null

# run PROGRAM SIZE_FLAG SIZE FULL DEBLOATED PARAMS
run() {
  for mode in local remote; do
    echo "== $1 $6 $mode"
    status=0
    if [ "$mode" = local ]; then
      "$K" run -p "$1" "$2" "$3" --params "$6" "$5" > "$T/out" || status=$?
    else
      "$K" run -p "$1" "$2" "$3" --params "$6" "$5" --remote "$4" > "$T/out" || status=$?
    fi
    grep -E '^(read |DATA MISSING|value checksum)' "$T/out" || true
    echo "exit $status"
  done
}

for v in 12,12,12 16,12,14 12,14,16 16,16,16; do
  run PRL3D -m 64 "$T/prl.kh5" "$T/prl_deb.kh5" "$v"
done
for v in 0,0 296,264 370,402 0,32 148,148 444,476; do
  run CS3 -n 512 "$T/cs3.kh5" "$T/cs3_deb.kh5" "$v"
done
