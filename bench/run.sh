#!/usr/bin/env bash
# The command BENCHMARK.json names. Run from the root of a checkout:
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# It builds the benchmark from source and replaces itself with it.
# Everything the build writes (compiler cache, scratch files, the binary)
# goes under .bench_build in the checkout, nothing outside it.
set -euo pipefail
mkdir -p .bench_build/gocache .bench_build/gotmp
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local
go build -o "$out/paccel-bench" ./bench
exec "$out/paccel-bench" "$@"
