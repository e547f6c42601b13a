#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload node-mix --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go build and module caches,
# compiler temporaries) goes under .bench_build in the current directory,
# so the run writes nothing outside the checkout. The toolchain is pinned
# to the local one and the module proxy is off: the module has no outside
# dependencies.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go -C bench build -o "$out/coserve-bench" .
exec "$out/coserve-bench" "$@"
