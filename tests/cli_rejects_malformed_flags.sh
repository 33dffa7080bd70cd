#!/bin/sh
# CLI rejection contract: every malformed, misplaced or unknown flag
# makes nosq_sim exit 1 and nosq_sweepd exit 2 (never an abort), with
# exactly one stderr line that names the flag; --help prints to
# stdout and exits 0. A malformed NOSQ_JOBS or NOSQ_SIM_INSTS fails
# the same way, also in an ablation binary (exit 1).
#
# usage: cli_rejects_malformed_flags.sh NOSQ_SIM NOSQ_SWEEPD ABLATION
# Runs in the current directory and writes only cli_rej_* files there.

sim=$1
sweepd=$2
ablation=$3
failures=0

# expect STATUS FLAG COMMAND...: COMMAND exits with STATUS within
# 30 s and its stderr is one line containing FLAG.
expect() {
    want=$1
    flag=$2
    shift 2
    # A value the binary misreads can start an endless run; the
    # timeout turns that into a failed case.
    timeout 30 "$@" > cli_rej_out.txt 2> cli_rej_err.txt
    got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: exit $got, want $want: $*"
        failures=$((failures + 1))
    elif [ "$(wc -l < cli_rej_err.txt)" -ne 1 ] ||
         ! grep -q -e "$flag" cli_rej_err.txt; then
        echo "FAIL: stderr is not one line naming $flag: $*"
        sed 's/^/    /' cli_rej_err.txt
        failures=$((failures + 1))
    fi
}

rm -f cli_rej_*

# Strict numbers: no garbage, sign or suffix; --insts >= 1.
for value in abc -5 1x 0 ''; do
    expect 1 --insts "$sim" --bench gcc --insts "$value"
done
for value in abc -5 1x; do
    expect 1 --warmup "$sim" --bench gcc --insts 1000 --warmup "$value"
    expect 1 --seed "$sim" --bench gcc --insts 1000 --seed "$value"
    expect 1 --jobs "$sim" --sweep --bench gcc --modes nosq \
        --windows 128 --insts 1000 --jobs "$value"
done
expect 1 --insts "$sim" --bench gcc --insts 1e3
expect 1 --sample "$sim" --bench gcc --sample 1000:100:100:2:-1
expect 1 --trace-pipe "$sim" --bench gcc --insts 1000 \
    --trace-pipe cli_rej_window.json:-1:5
expect 1 --seed "$sim" --bench gcc --insts 1000 \
    --seed 99999999999999999999
expect 1 --insts "$sim" --bench gcc --insts

# Existing ranges (the bad --window, --sample, --mshrs and --cores
# values the cli_*_bad_* tests check are left out here).
expect 1 --cores "$sim" --bench gcc --cores 65 --insts 1000
expect 1 --prefetch "$sim" --bench gcc --prefetch 65 --insts 1000
expect 1 --queue-depth "$sim" --bench spsc-ring --queue-depth 12 \
    --insts 1000
expect 1 --entries "$sim" --bench gcc --entries 6 --insts 1000
expect 1 --retries "$sim" --sweep --bench gcc --modes nosq \
    --windows 128 --insts 1000 --retries 0

# Misplaced flags.
expect 1 --trace-pipe "$sim" --sweep --bench gcc --modes nosq \
    --windows 128 --insts 1000 --trace-pipe cli_rej_trace.json
if [ -e cli_rej_trace.json ]; then
    echo "FAIL: --sweep --trace-pipe wrote its trace"
    failures=$((failures + 1))
fi
expect 1 --out "$sim" --bench gcc --insts 1000 --out cli_rej_report.json
expect 1 --json "$sim" --bench gcc --insts 1000 --json
expect 1 --jobs "$sim" --bench gcc --insts 1000 --jobs 2
expect 1 --suite "$sim" --bench gcc --insts 1000 --suite int
expect 1 --modes "$sim" --bench gcc --insts 1000 --modes nosq
expect 1 --windows "$sim" --bench gcc --insts 1000 --windows 128

# Unknown flags, also after a flag that exits early.
expect 1 --bogus "$sim" --list --bogus
expect 1 --bogus "$sim" --bogus

# nosq_sweepd keeps exit status 2.
for value in abc 0 -1; do
    expect 2 --workers "$sweepd" --socket cli_rej.sock --workers "$value"
done
expect 2 --heartbeat-timeout "$sweepd" --socket cli_rej.sock \
    --heartbeat-timeout 0
expect 2 --max-pending "$sweepd" --socket cli_rej.sock --max-pending x
expect 2 --bogus "$sweepd" --socket cli_rej.sock --bogus
expect 2 --socket "$sweepd" --workers 1
expect 2 --socket "$sweepd" --socket

# Environment variables: digits only and at least 1, wherever they
# are read. None of these values may start a worker per job.
for value in abc 4x -1 0 ''; do
    expect 1 NOSQ_JOBS env NOSQ_JOBS="$value" "$sim" --sweep --bench gcc \
        --modes nosq --windows 128 --insts 1000
done
for value in abc 5k 0; do
    expect 1 NOSQ_SIM_INSTS env NOSQ_SIM_INSTS="$value" NOSQ_JOBS=1 \
        "$ablation"
done
expect 1 NOSQ_JOBS env NOSQ_JOBS=4x NOSQ_SIM_INSTS=1000 "$ablation"
for value in abc 0; do
    expect 2 NOSQ_JOBS env NOSQ_JOBS="$value" "$sweepd" \
        --socket cli_rej.sock
done

# --help prints to stdout and exits 0.
for binary in "$sim" "$sweepd"; do
    if ! "$binary" --help > cli_rej_out.txt 2> cli_rej_err.txt ||
       [ ! -s cli_rej_out.txt ] || [ -s cli_rej_err.txt ]; then
        echo "FAIL: $binary --help"
        failures=$((failures + 1))
    fi
done

echo "$failures failure(s)"
[ "$failures" -eq 0 ]
