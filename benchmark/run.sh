#!/bin/sh
# Builds the benchmark and picl-simd from this checkout's source into
# .bench_build/, then runs the benchmark from the repository root with
# the given arguments, for example:
#
#   bash benchmark/run.sh --workload sim-gcc --seed 1 --seconds 25 --trace 0
#
# Every file the build and the run write (Go build cache, the go
# command's config and telemetry, temporary stores, reports, span files)
# stays under .bench_build/.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
cd "$root/benchmark"
go build -o "$build/bin/" . picl/cmd/picl-simd
cd "$root"
exec "$build/bin/benchmark" -simd "$build/bin/picl-simd" "$@"
