#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the checkout root:
#
#   bash lhperf/run.sh --workload bi_tpch --seed 1 --seconds 30 --trace 0
#
# Build outputs (compiler cache, binary) and run outputs (data
# directories, detail files) stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd lhperf && go build -o "$out/bin/lhperf" .)
exec "$out/bin/lhperf" "$@"
