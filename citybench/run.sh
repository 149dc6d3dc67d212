#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash citybench/run.sh --workload city_binary --seed 1 --seconds 15 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/citybench" && go build -o "$out/bin/citybench" .)
exec "$out/bin/citybench" -out "$out" "$@"
