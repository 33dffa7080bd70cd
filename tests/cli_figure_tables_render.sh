#!/bin/sh
# Every figure dimension of --sweep=DIM prints its paper table: exit
# 0, the figure's title line, one row per benchmark (one per
# hierarchy point for memsys), and the same sweep's --json report
# passes --validate, its memsys rows labelled with their point. A
# table drawn through a nosq_sweepd daemon is byte-identical to the
# local one.
#
# usage: cli_figure_tables_render.sh NOSQ_SIM NOSQ_SWEEPD
# Runs in the current directory and writes only cli_fig_* files there.

sim=$1
sweepd=$2
failures=0

# check DIM TITLE ROWS [FLAGS...]: the DIM table holds TITLE and ROWS
# is the number of its lines that start with a benchmark or point.
check() {
    dim=$1
    title=$2
    rows=$3
    shift 3
    run="$sim --sweep=$dim --bench gcc,g721.e --insts 20000 --jobs 2 $*"
    if ! $run > cli_fig_table.txt 2> cli_fig_err.txt; then
        echo "FAIL: exit $?: $run"
        sed 's/^/    /' cli_fig_err.txt
        failures=$((failures + 1))
        return
    fi
    if ! grep -q -F -e "$title" cli_fig_table.txt; then
        echo "FAIL: no title '$title': $run"
        failures=$((failures + 1))
    fi
    got=$(grep -c -E '^\| (gcc|g721\.e|l2-[^ ]*) ' cli_fig_table.txt)
    if [ "$got" -ne "$rows" ]; then
        echo "FAIL: $got rows, want $rows: $run"
        sed 's/^/    /' cli_fig_table.txt
        failures=$((failures + 1))
    fi
    for bench in gcc g721.e; do
        if [ "$rows" -eq 2 ] &&
           [ "$(grep -c -F "| $bench " cli_fig_table.txt)" -ne 1 ]; then
            echo "FAIL: not one row for $bench: $run"
            failures=$((failures + 1))
        fi
    done
    if ! $run --json > cli_fig_report.json ||
       ! "$sim" --validate cli_fig_report.json > /dev/null; then
        echo "FAIL: --json report does not validate: $run"
        failures=$((failures + 1))
    fi
}

rm -f cli_fig_*

check lsu "Figure 2: relative execution time, 128-entry window" 2
check lsu "Figure 3: relative execution time, 256-entry window" 2 \
    --window 256
check cache-reads "Figure 4: data cache reads" 2
check capacity "Figure 5 (top): predictor capacity sweep" 2 \
    --capacities 512,2K,Inf
check history "Figure 5 (bottom): path history length sweep" 2 \
    --history 0,2,4,8,12
check delay "Table 5: communication behaviour" 2
check svw "Ablation: SVW-filtered re-execution" 2
check memsys "Memory-hierarchy scaling" 16
# Every memsys row carries its hierarchy point's label.
if ! grep -q '"memsys": "l2-1M-lat20-mshr8-pref"' cli_fig_report.json; then
    echo "FAIL: no memsys label in the --sweep=memsys --json report"
    failures=$((failures + 1))
fi

# A figure table is a function of the results alone: rendered at
# --jobs 3 through a one-worker daemon, it matches the local table
# rendered at --jobs 2.
run="$sim --sweep=delay --bench gcc,g721.e --insts 20000"
"$sweepd" --socket cli_fig.sock --store cli_fig_store.jsonl --workers 1 \
    --log cli_fig_daemon.log &
daemon=$!
trap 'kill -KILL $daemon 2>/dev/null' EXIT
for i in $(seq 1 100); do
    [ -S cli_fig.sock ] && break
    sleep 0.1
done
if ! $run --jobs 2 > cli_fig_local.txt 2> /dev/null ||
   ! $run --jobs 3 --server=cli_fig.sock > cli_fig_served.txt \
       2> /dev/null ||
   ! cmp cli_fig_local.txt cli_fig_served.txt; then
    echo "FAIL: the served table differs from the local one: $run"
    diff cli_fig_local.txt cli_fig_served.txt | sed 's/^/    /'
    failures=$((failures + 1))
fi

echo "$failures failure(s)"
[ "$failures" -eq 0 ]
