#!/usr/bin/env sh
# No-fused-multiply-add gate for the forecast path, the trace
# generator and mathx.Exp (CI `golden` job). The Go spec lets a compiler fuse
# `x*y + z` into one FMA with a single rounding, and the arm64,
# ppc64le, riscv64 and s390x compilers do, so a fused site gives other
# forecast, trace or exponential bits there than on amd64 (whose
# compiler never fuses). An explicit `float64(x*y)` forbids it. This script cross-builds
# ./cmd/ntc-sweep for those four architectures and fails if
# `go tool objdump` shows a fused op at a line of
# internal/forecast/*.go, internal/mathx/linalg.go,
# internal/mathx/exp.go or internal/trace/*.go.
#
# Run it from the root of the repository: sh scripts/nofma.sh
# It needs no network and no runner of the target architectures.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The checked files, by package and base name as objdump prints it: an
# instruction counts when its function is in the package and its line
# is in one of the package's files (internal/alloc has a baselines.go
# and internal/mathx a stats.go of their own).
nontest() { (cd "$1" && ls *.go | grep -v '_test\.go$' | tr '\n' ' '); }
files="forecast:$(nontest internal/forecast)
mathx:linalg.go exp.go
trace:$(nontest internal/trace)"

status=0
for arch in arm64 ppc64le riscv64 s390x; do
    GOARCH=$arch go build -o "$tmp/ntc-sweep-$arch" ./cmd/ntc-sweep
    go tool objdump "$tmp/ntc-sweep-$arch" > "$tmp/dump-$arch"
    awk -v arch="$arch" -v files="$files" '
        BEGIN {
            n = split(files, lines, "\n")
            for (i = 1; i <= n; i++) {
                split(lines[i], kv, ":")
                m = split(kv[2], f, " ")
                for (j = 1; j <= m; j++) checked[kv[1] ":" f[j]] = 1
            }
        }
        /^TEXT / {
            pkg = ""
            if (match($2, /^repro\/internal\/(forecast|mathx|trace)\./))
                pkg = substr($2, 16, RLENGTH - 16)
            next
        }
        pkg == "" { next }
        {
            split($1, at, ":")
            if (!((pkg ":" at[1]) in checked)) next
            seen[pkg]++
            if ($4 ~ /^(FMADDD|FMSUBD|FNMADDD|FNMSUBD|FMADD|FMSUB|FNMADD|FNMSUB|MADBR|MSDBR)$/) {
                print arch ": fused " $4 " at " $1 " in package " pkg
                fused++
            }
        }
        END {
            if (!seen["forecast"] || !seen["mathx"] || !seen["trace"]) {
                print arch ": no instructions of a checked package found; objdump output not understood"
                exit 1
            }
            exit (fused > 0)
        }' "$tmp/dump-$arch" || status=1
done

if [ "$status" -ne 0 ]; then
    echo "nofma: fused multiply-adds in the forecast path, the trace generator or mathx.Exp; round the product with float64(x*y)" >&2
    exit 1
fi
echo "nofma: no fused multiply-adds in internal/forecast, internal/mathx/linalg.go, internal/mathx/exp.go or internal/trace (arm64, ppc64le, riscv64, s390x)"
