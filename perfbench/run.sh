#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root; the arguments pass through to the benchmark:
#
#   bash perfbench/run.sh --workload ring-reconfig --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# working directory: the Go build cache, the toolchain's config and
# telemetry counters, temporary files and the binary.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=

go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
