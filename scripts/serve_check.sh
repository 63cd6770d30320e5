#!/usr/bin/env sh
# End-to-end live-service gate (CI `serve` job): boot a real ntc-serve
# daemon on an ephemeral port, host two sessions plus a live-ingestion
# session, drive their replays over HTTP, and prove the exposition
# contract from outside the process:
#
#   (a) two scrapes at the same slots are byte-identical over the whole
#       multi-session page (deterministic rendering, no scrape
#       counters), every session shards the page under its own
#       session label, and the carbon gauges (ntc_carbon_*,
#       ntc_dc_carbon_* sharded per DC) are on the page, live, and —
#       being part of the compared bytes — scrape-stable;
#   (b) per-session slot counters are monotone and independent, and the
#       stable gauges (ntc_slots, ntc_info) never change;
#   (c) a live-ingestion session is gated: stepping before the slot's
#       observed samples land is a 409, and ingesting them unblocks
#       exactly one slot;
#   (d) a warm what-if — same delta, second request — answers with zero
#       executions from the shared result store, and a mid-replay fork
#       answers from carried state without executing anything either.
set -eu

tmp=$(mktemp -d)
serve_pid=""
cleanup() {
    [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/ntc-serve" ./cmd/ntc-serve

# Small triad scenario (24 slots) with a writable what-if store.
"$tmp/ntc-serve" \
    -addr 127.0.0.1:0 \
    -vms 48 -max-servers 48 -days 1 -history 1 \
    -predictor oracle -transitions default \
    -topology triad -rebalance epoch:4 \
    -cache rw -cache-dir "$tmp/store" \
    2> "$tmp/serve.log" &
serve_pid=$!

# Scrape the bound address from the daemon's banner.
addr=""; tries=0
while [ -z "$addr" ]; do
    addr=$(sed -n 's/^ntc-serve: listening on \(.*\)$/\1/p' "$tmp/serve.log")
    tries=$((tries + 1))
    if [ "$tries" -gt 400 ]; then
        echo "serve gate FAILED: daemon never reported its address:" >&2
        cat "$tmp/serve.log" >&2
        exit 1
    fi
    [ -n "$addr" ] || sleep 0.05
done

# post PATH BODY -> stdout body; records the HTTP code in $code.
post() {
    code=$(curl -sS -o "$tmp/resp.json" -w '%{http_code}' -X POST -d "$2" "http://$addr$1")
    cat "$tmp/resp.json"
}
step() {
    post "/v1/sessions/$1/step" "{\"slots\": $2}" > "$tmp/step.json"
    [ "$code" = 200 ] || {
        echo "serve gate FAILED: step $1 -> $code: $(cat "$tmp/step.json")" >&2
        exit 1
    }
}
scrape() {
    curl -sS "http://$addr/metrics" > "$1"
}
slot_of() {
    sed -n 's/^ntc_slot{session="'"$2"'"} \([0-9][0-9]*\)$/\1/p' "$1"
}

# Two extra sessions against the flag-built base: a hotter-static-power
# replay, and a live-ingestion session fed observed telemetry.
post /v1/sessions '{"id": "hot", "static_power_w": [30]}' > /dev/null
[ "$code" = 201 ] || { echo "serve gate FAILED: create hot -> $code" >&2; exit 1; }
post /v1/sessions '{"id": "live", "ingest": true}' > /dev/null
[ "$code" = 201 ] || { echo "serve gate FAILED: create live -> $code" >&2; exit 1; }

# (a) Determinism across the sharded page: advance default to slot 8
# and hot to slot 5, scrape twice, compare bytes.
step default 8
step hot 5
scrape "$tmp/m1.txt"
scrape "$tmp/m2.txt"
cmp "$tmp/m1.txt" "$tmp/m2.txt"
[ "$(slot_of "$tmp/m1.txt" default)" = "8" ] || {
    echo "serve gate FAILED: default at slot $(slot_of "$tmp/m1.txt" default), want 8" >&2
    exit 1
}
[ "$(slot_of "$tmp/m1.txt" hot)" = "5" ] || {
    echo "serve gate FAILED: hot at slot $(slot_of "$tmp/m1.txt" hot), want 5" >&2
    exit 1
}
grep -q '^ntc_info{session="hot",' "$tmp/m1.txt"

# Carbon gauges ride on the same byte-compared page: the fleet totals
# exist per session, the per-DC shards carry every triad DC, and the
# operational total is live (the triad prices at the default grid
# intensity), not a dead zero.
grep -q '^ntc_carbon_operational_g{session="default"} ' "$tmp/m1.txt"
grep -q '^ntc_carbon_embodied_g{session="default"} ' "$tmp/m1.txt"
grep -q '^ntc_carbon_operational_g{session="hot"} ' "$tmp/m1.txt"
for dc in core metro edge; do
    grep -q '^ntc_dc_carbon_operational_g{session="default",dc="'"$dc"'"} ' "$tmp/m1.txt" || {
        echo "serve gate FAILED: no per-DC operational-carbon gauge for $dc" >&2
        exit 1
    }
done
grep '^ntc_carbon_operational_g{session="default"} ' "$tmp/m1.txt" | grep -qv ' 0$' || {
    echo "serve gate FAILED: operational carbon is zero at slot 8" >&2
    exit 1
}

# (b) Monotone, independent ticks; stable identity gauges.
step default 5
scrape "$tmp/m3.txt"
[ "$(slot_of "$tmp/m3.txt" default)" = "13" ] || {
    echo "serve gate FAILED: default slot not monotone: $(slot_of "$tmp/m3.txt" default) after 8+5 ticks" >&2
    exit 1
}
[ "$(slot_of "$tmp/m3.txt" hot)" = "5" ] || {
    echo "serve gate FAILED: stepping default moved hot to $(slot_of "$tmp/m3.txt" hot)" >&2
    exit 1
}
grep '^ntc_slots{' "$tmp/m1.txt" > "$tmp/stable1.txt"
grep '^ntc_info{' "$tmp/m1.txt" >> "$tmp/stable1.txt"
grep '^ntc_slots{' "$tmp/m3.txt" > "$tmp/stable3.txt"
grep '^ntc_info{' "$tmp/m3.txt" >> "$tmp/stable3.txt"
cmp "$tmp/stable1.txt" "$tmp/stable3.txt"
grep -q '^ntc_slots{session="default"} 24$' "$tmp/m3.txt"

# (c) Live ingestion is gated: a step before the slot's samples land
# is a 409, ingesting one slot of observed telemetry unblocks exactly
# one step.
post /v1/sessions/live/step '{}' > /dev/null
[ "$code" = 409 ] || {
    echo "serve gate FAILED: stepping unobserved live session -> $code, want 409" >&2
    exit 1
}
row='[0,0,0,0,0,0,0,0,0,0,0,0]'
rows=$row; i=1
while [ "$i" -lt 48 ]; do rows="$rows,$row"; i=$((i + 1)); done
post /v1/sessions/live/observe "{\"slot\": 0, \"cpu\": [$rows], \"mem\": [$rows]}" > /dev/null
[ "$code" = 200 ] || {
    echo "serve gate FAILED: observe slot 0 -> $code: $(cat "$tmp/resp.json")" >&2
    exit 1
}
step live 1
grep -q '"session":"live","slot":1,' "$tmp/step.json" || {
    echo "serve gate FAILED: live step response: $(cat "$tmp/step.json")" >&2
    exit 1
}
scrape "$tmp/m5.txt"
grep -q '^ntc_ingest{session="live"} 1$' "$tmp/m5.txt"
grep -q '^ntc_ingest_slots{session="live"} 1$' "$tmp/m5.txt"

# (d) Warm what-if: cold request executes, identical repeat answers
# entirely from the store; a mid-replay fork answers from carried
# state — no executions either way.
whatif() {
    post /v1/sessions/default/whatif '{"policies": ["EPACT", "COAT"]}'
}
whatif | grep -q '"scenarios":2,"executed":2,"cache_hits":0'
whatif | grep -q '"scenarios":2,"executed":0,"cache_hits":2'
post /v1/sessions/default/whatif '{"fork": true}' > "$tmp/fork.json"
[ "$code" = 200 ] || {
    echo "serve gate FAILED: fork -> $code: $(cat "$tmp/fork.json")" >&2
    exit 1
}
grep -q '"session":"default","slot":13,"slots":24,"fork":true' "$tmp/fork.json"
scrape "$tmp/m4.txt"
grep -q '^ntc_whatif_executed{session="default"} 2$' "$tmp/m4.txt"
grep -q '^ntc_whatif_cache_hits{session="default"} 2$' "$tmp/m4.txt"
grep -q '^ntc_whatif_forks{session="default"} 1$' "$tmp/m4.txt"
grep -q '^ntc_cache_writes{session="default"} 2$' "$tmp/m4.txt"

echo "serve gate ok: byte-identical 3-session scrapes with live per-DC carbon gauges, default 13/24 + hot 5/24, gated ingestion on live, warm what-if + fork executed 0"
