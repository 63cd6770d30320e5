#!/usr/bin/env sh
# End-to-end crash-resume gate (CI `chaos` job): a real coordinator
# process (-serve) journaling to -checkpoint-dir is SIGKILLed mid-grid
# — no shutdown hook, no flush, exactly the failure the journal exists
# for — then restarted with -resume. The gate proves the resumed sweep
# (a) emits CSV byte-identical to an uninterrupted engine run and
# (b) re-executes zero journaled rows: the resumed coordinator leases
# exactly the units the journal lacked.
#
# The scenario and resumed-row counts are derived from the runs' own
# banners and journal, never hard-coded, so the gate stays loud when
# the grid or batch sizing changes.
set -eu

tmp=$(mktemp -d)
coord_pid=""
worker_pid=""
cleanup() {
    [ -n "$worker_pid" ] && kill "$worker_pid" 2>/dev/null
    [ -n "$coord_pid" ] && kill -9 "$coord_pid" 2>/dev/null
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/ntc-sweep" ./cmd/ntc-sweep

# 24 scenarios heavy enough (2000 VMs each) that the sweep takes
# seconds: the kill window between the first journaled batch and the
# end of the grid is wide. run_grid execs the binary, so a backgrounded
# call's $! is the ntc-sweep process itself (kill -9 must reach the
# coordinator, not a subshell that would leave it running); a
# foreground call runs it in a subshell so the exec cannot replace
# this script.
run_grid() {
    exec "$tmp/ntc-sweep" \
        -policies EPACT,COAT,COAT-OPT,FFD,Verma-binary,load-balance \
        -vms 2000 -max-servers 2000 -days 1 -history 1 \
        -predictors oracle,last-value -transitions none,default \
        "$@"
}

# Scrape the address a -serve coordinator bound from its stderr log.
# The backgrounded coordinator's shell may not have created the log
# yet, so a missing file reads as "no address yet".
wait_addr() {
    log=$1; addr=""; tries=0
    while [ -z "$addr" ]; do
        [ -e "$log" ] && addr=$(sed -n 's/^coordinator: listening on \(.*\)$/\1/p' "$log")
        tries=$((tries + 1))
        if [ "$tries" -gt 400 ]; then
            echo "resume gate FAILED: coordinator never reported its address:" >&2
            cat "$log" >&2
            exit 1
        fi
        [ -n "$addr" ] || sleep 0.05
    done
    echo "$addr"
}

# count_rows: completed rows currently in the journal (each carries a
# "row" key; lease entries do not).
count_rows() {
    grep -o '"row":' "$tmp/ck/journal.json" 2>/dev/null | wc -l
}

# The uninterrupted reference run.
(run_grid -workers 4 -csv "$tmp/ref.csv") 2> "$tmp/ref.log"
n=$(sed -n 's/^running \([0-9][0-9]*\) scenarios\.\.\..*/\1/p' "$tmp/ref.log")
if [ -z "$n" ] || [ "$n" -le 0 ]; then
    echo "resume gate FAILED: could not derive the scenario count from the sweep banner:" >&2
    cat "$tmp/ref.log" >&2
    exit 1
fi

# Coordinator A journals to the checkpoint dir; one worker grinds the
# grid until A is kill -9'd mid-run.
run_grid -serve 127.0.0.1:0 -checkpoint-dir "$tmp/ck" -csv "$tmp/a.csv" 2> "$tmp/a.log" &
coord_pid=$!
addr=$(wait_addr "$tmp/a.log")
"$tmp/ntc-sweep" -worker "$addr" -quiet 2> "$tmp/worker_a.log" &
worker_pid=$!

tries=0
while [ "$(count_rows)" -lt 1 ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 600 ]; then
        echo "resume gate FAILED: no batch ever reached the journal:" >&2
        cat "$tmp/a.log" "$tmp/worker_a.log" >&2
        exit 1
    fi
    sleep 0.05
done
kill -9 "$coord_pid"
wait "$coord_pid" 2>/dev/null || true
coord_pid=""
kill "$worker_pid" 2>/dev/null || true
wait "$worker_pid" 2>/dev/null || true
worker_pid=""

# The journal is final now; the kill must have landed mid-grid.
r=$(count_rows)
if [ "$r" -lt 1 ] || [ "$r" -ge "$n" ]; then
    echo "resume gate FAILED: journal holds $r of $n rows — the kill missed the mid-run window" >&2
    exit 1
fi
if [ -f "$tmp/a.csv" ]; then
    echo "resume gate FAILED: the killed coordinator wrote its CSV anyway" >&2
    exit 1
fi

# Coordinator B resumes from the journal — no axis flags: the journal
# alone defines the grid. A fresh worker finishes it. B's exit status
# gates the script (set -e via plain wait).
"$tmp/ntc-sweep" -resume "$tmp/ck" -serve 127.0.0.1:0 -csv "$tmp/b.csv" 2> "$tmp/b.log" &
coord_pid=$!
addr=$(wait_addr "$tmp/b.log")
"$tmp/ntc-sweep" -worker "$addr" -quiet 2> "$tmp/worker_b.log" &
worker_pid=$!
wait "$coord_pid"
coord_pid=""
wait "$worker_pid" || true
worker_pid=""

# Byte-identity with the uninterrupted run.
cmp "$tmp/ref.csv" "$tmp/b.csv"

# Zero re-executed warm units: B restored exactly r rows and leased
# exactly the n-r the journal lacked.
grep -q "resuming: $r of $n rows restored" "$tmp/b.log"
grep -q "dist: $n units (0 cache hits), $((n - r)) leases" "$tmp/b.log"
grep -q ", $r resumed," "$tmp/b.log"

echo "resume gate ok: kill -9 after $r of $n rows, resumed run re-executed 0 journaled units, bytes identical"
