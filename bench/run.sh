#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from source into
# .bench_build in the checkout (Go build cache included, so nothing is
# written outside the checkout) and runs it with the given arguments:
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
# With no arguments it runs the whole suite; see bench/README.md.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
