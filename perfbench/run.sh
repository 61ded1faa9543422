#!/usr/bin/env bash
# Builds quickseld, quickselrouter and the benchmark from this checkout into
# .bench_build, then runs the benchmark with the given arguments. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload serve-light --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --selftest
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
  GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -o "$out/bin/" ./cmd/quickseld ./cmd/quickselrouter
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
