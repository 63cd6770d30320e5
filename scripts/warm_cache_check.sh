#!/usr/bin/env sh
# End-to-end warm-cache gate (CI `golden` job): run the same grid
# twice against one result store and prove the second run executed
# nothing — 0 misses, 0 rows written, no trace ingested — while
# emitting byte-identical CSV. Then prove the distributed path
# (`-dist local:4`) reuses the same store without leasing a single
# unit and still matches the bytes.
#
# It runs two grids: one over the synthetic generator, and one over
# file-backed inputs — `csv:` and `cluster:` traces written by
# cmd/tracegen plus a fleet file — whose cache keys carry the files'
# content hashes.
#
# The expected hit/unit counts are derived from each cold run's own
# "running N scenarios" banner, never hard-coded, so the gate stays
# loud when the default grid grows another axis instead of silently
# matching stale literals.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/ntc-sweep" ./cmd/ntc-sweep
go build -o "$tmp/tracegen" ./cmd/tracegen

# gate NAME GRID-FLAGS...: cold run, warm run, then -dist local:4,
# all against the store $tmp/NAME-cache.
gate() {
    name=$1; shift
    run_sweep() {
        # $1 = run suffix, rest = extra flags
        run=$1; shift
        "$tmp/ntc-sweep" "$@" -cache rw -cache-dir "$tmp/$name-cache" \
            -csv "$tmp/$name-$run.csv" 2> "$tmp/$name-$run.log"
    }

    run_sweep a "$@"

    # The scenario count every later assertion scales from.
    n=$(sed -n 's/^running \([0-9][0-9]*\) scenarios\.\.\..*/\1/p' "$tmp/$name-a.log")
    if [ -z "$n" ] || [ "$n" -le 0 ]; then
        echo "warm-cache gate FAILED ($name): could not derive the scenario count from the sweep banner:" >&2
        cat "$tmp/$name-a.log" >&2
        exit 1
    fi
    # The cold run must have written every row it executed.
    grep -q "cache: 0 hits, $n misses, $n rows written" "$tmp/$name-a.log"

    run_sweep b "$@"
    cmp "$tmp/$name-a.csv" "$tmp/$name-b.csv"
    grep -q "cache: $n hits, 0 misses, 0 rows written" "$tmp/$name-b.log"
    grep -q "0 traces built for 0 requests" "$tmp/$name-b.log"

    run_sweep c "$@" -dist local:4
    cmp "$tmp/$name-a.csv" "$tmp/$name-c.csv"
    grep -q "dist: $n units ($n cache hits), 0 leases to 0 workers" "$tmp/$name-c.log"

    echo "warm-cache gate ok ($name): second run executed 0 of $n scenarios, bytes identical (engine and -dist local:4)"
}

gate synthetic -policies EPACT,COAT -vms 24 -max-servers 24 \
    -days 1 -history 1 -predictors oracle

"$tmp/tracegen" -seed 7 -vms 24 -days 2 -format csv -o "$tmp/week.csv"
"$tmp/tracegen" -seed 8 -vms 24 -days 2 -format cluster -o "$tmp/dump.csv"
cat > "$tmp/fleet.json" <<JSON
{
  "name": "pair",
  "dcs": [
    {"name": "core", "share": 0.6, "pue": 1.12, "latency_ms": 40},
    {"name": "edge", "share": 0.4, "pue": 1.4, "server": "conventional", "latency_ms": 5}
  ]
}
JSON
gate files -policies EPACT,COAT -vms 24 -max-servers 24 \
    -days 1 -history 1 -predictors oracle -seeds 1,2 \
    -trace "csv:$tmp/week.csv,cluster:$tmp/dump.csv" \
    -topology "single,$tmp/fleet.json"
