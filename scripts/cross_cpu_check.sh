#!/usr/bin/env sh
# Same-bytes gate across CPUs and architectures (CI `golden` job): one
# ntc-sweep grid, run as an amd64 binary, as the same binary with the
# CPU's fused multiply-add switched off (GODEBUG=cpu.fma=off), and as
# a 386 binary, must write byte-identical -json results. The cache key
# names no host, so a row must not depend on the CPU that computed it.
#
# The three runs cover what nofma.sh cannot see: the standard
# library's amd64 assembly, which picks an FMA path at run time on
# CPUs that have it (math.Exp did, until internal/fdsoi moved to
# mathx.Exp), and the Go twins of the forecast path's amd64 lane
# kernels, which only the 386 run executes. The grid covers every
# policy, both predictors, transition pricing, both power models and a
# rebalanced three-DC fleet.
#
# A row carries no forecast value, and a forecast that moves by a few
# ulps flips no decision on this grid (reversing every sum of the lane
# kernels' Go twins leaves all its bytes alone), so the same three ways
# also run the ARIMA fit against its scalar reference, bit for bit.
#
# Run it from the root of the repository on an amd64 host:
#     sh scripts/cross_cpu_check.sh
# On a CPU without FMA the first two runs take the same path and only
# the 386 comparison has teeth. It needs no network.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

GOARCH=amd64 go build -o "$tmp/ntc-sweep-amd64" ./cmd/ntc-sweep
GOARCH=386 go build -o "$tmp/ntc-sweep-386" ./cmd/ntc-sweep

grid="-policies EPACT,COAT,COAT-OPT,FFD,Verma-binary,load-balance
    -vms 120 -max-servers 120 -days 2 -history 2
    -predictors arima,oracle -transitions none,default
    -power-model ntc,tdp -topology single,greedy-proportional@triad
    -rebalance off,epoch:4"

# $1 = run name, rest = the command; the grid and -json are appended.
run() {
    name=$1; shift
    # shellcheck disable=SC2086 # the grid is split into flags on purpose
    if ! "$@" $grid -json "$tmp/$name.json" > /dev/null 2> "$tmp/$name.log"; then
        echo "cross-CPU gate FAILED: the $name run failed:" >&2
        cat "$tmp/$name.log" >&2
        exit 1
    fi
}

run amd64 "$tmp/ntc-sweep-amd64"
run amd64-nofma env GODEBUG=cpu.fma=off "$tmp/ntc-sweep-amd64"
run 386 "$tmp/ntc-sweep-386"

if ! grep -q '"policy"' "$tmp/amd64.json"; then
    echo "cross-CPU gate FAILED: the amd64 run wrote no rows" >&2
    exit 1
fi
if ! grep -qw fma /proc/cpuinfo 2> /dev/null; then
    echo "cross-CPU gate: note: this CPU reports no FMA; the cpu.fma=off run checks nothing extra" >&2
fi

status=0
arima='^(TestARIMAMatchesReference|FuzzARIMAForecast)'
for way in amd64 amd64-nofma 386; do
    case $way in
    amd64) set -- env GOARCH=amd64 ;;
    amd64-nofma) set -- env GOARCH=amd64 GODEBUG=cpu.fma=off ;;
    386) set -- env GOARCH=386 ;;
    esac
    if ! "$@" go test -count=1 -run "$arima" ./internal/forecast > "$tmp/arima-$way.log" 2>&1; then
        echo "cross-CPU gate FAILED: the ARIMA fit differs from its reference on $way:" >&2
        tail -20 "$tmp/arima-$way.log" >&2
        status=1
    fi
done
for other in amd64-nofma 386; do
    if ! cmp -s "$tmp/amd64.json" "$tmp/$other.json"; then
        echo "cross-CPU gate FAILED: amd64 and $other write different -json bytes:" >&2
        diff "$tmp/amd64.json" "$tmp/$other.json" | head -20 >&2 || true
        status=1
    fi
done
[ "$status" -eq 0 ] || exit 1
echo "cross-CPU gate: amd64, amd64 with cpu.fma=off and 386 write identical bytes ($(wc -c < "$tmp/amd64.json") bytes of -json) and fit ARIMA as the reference does"
