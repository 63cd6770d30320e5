#!/usr/bin/env sh
# No-fused-multiply-add gate for the forecast path (CI `golden` job).
# The Go spec lets a compiler fuse `x*y + z` into one FMA with a single
# rounding, and the arm64, ppc64le, riscv64 and s390x compilers do, so
# a fused site gives other forecast bits there than on amd64 (which
# never fuses). An explicit `float64(x*y)` forbids it. This script
# cross-builds ./cmd/ntc-sweep for those four architectures and fails
# if `go tool objdump` shows a fused op at a line of
# internal/forecast/*.go or internal/mathx/linalg.go.
#
# Run it from the root of the repository: sh scripts/nofma.sh
# It needs no network and no runner of the target architectures.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The checked files, by base name as objdump prints them; an
# instruction counts when its function is in package forecast or mathx
# (internal/alloc has a baselines.go of its own).
files=$(cd internal/forecast && ls *.go | grep -v '_test\.go$' | tr '\n' ' ')
files="$files linalg.go"

status=0
for arch in arm64 ppc64le riscv64 s390x; do
    GOARCH=$arch go build -o "$tmp/ntc-sweep-$arch" ./cmd/ntc-sweep
    go tool objdump "$tmp/ntc-sweep-$arch" > "$tmp/dump-$arch"
    awk -v arch="$arch" -v files="$files" '
        BEGIN {
            n = split(files, f, " ")
            for (i = 1; i <= n; i++) checked[f[i]] = 1
        }
        /^TEXT / { inpkg = ($2 ~ /^repro\/internal\/(forecast|mathx)\./); next }
        !inpkg { next }
        {
            split($1, at, ":")
            if (!(at[1] in checked)) next
            seen++
            if ($4 ~ /^(FMADDD|FMSUBD|FNMADDD|FNMSUBD|FMADD|FMSUB|FNMADD|FNMSUB|MADBR|MSDBR)$/) {
                print arch ": fused " $4 " at " $1
                fused++
            }
        }
        END {
            if (!seen) {
                print arch ": no instructions of the checked files found; objdump output not understood"
                exit 1
            }
            exit (fused > 0)
        }' "$tmp/dump-$arch" || status=1
done

if [ "$status" -ne 0 ]; then
    echo "nofma: fused multiply-adds in the forecast path; round the product with float64(x*y)" >&2
    exit 1
fi
echo "nofma: no fused multiply-adds in internal/forecast or internal/mathx/linalg.go (arm64, ppc64le, riscv64, s390x)"
