#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build at the checkout root and runs it with the arguments given. The
# Go build and module caches are pinned inside .bench_build too, so neither
# the build nor the run writes outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOMODCACHE="$PWD/.bench_build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
