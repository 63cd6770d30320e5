#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root of
# the repository:
#
#   bash bench/run.sh --workload paper-week --seed 2018 --seconds 20 --trace 0
#   bash bench/run.sh --workload all
#   bash bench/run.sh --sets 2
#
# Everything the build and the runs write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, temporary
# result stores and the result files. The toolchain is pinned to the
# local one and module downloads are off; the benchmark imports only
# the standard library and the enclosing module.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C bench build -o "$out/ntcbench" .
exec "$out/ntcbench" -workdir "$out" "$@"
