#!/usr/bin/env bash
# Builds the FL-round benchmark from the checkout's sources and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload inproc-tee --seed 1 --seconds 15 --trace 0
# Build outputs, the Go build cache and run scratch all stay under
# .bench_build/ in the checkout; nothing is fetched from the network.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# The go command keeps telemetry counters under the user config dir.
export XDG_CONFIG_HOME=$out/config
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" --out "$out" "$@"
