#!/usr/bin/env bash
# Builds the benchmark and crossinvd from source, then runs the benchmark.
# Run from the root of the repository:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 25 --trace 0
#
# Every build product and scratch file stays under .bench_build/ in the
# repository root; the Go build cache and configuration live there too.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go -C perfbench build -o "$out/perfbench" . >&2
go -C perfbench build -o "$out/crossinvd" crossinv/cmd/crossinvd >&2

exec "$out/perfbench" -daemon "$out/crossinvd" -work "$out/work" "$@"
