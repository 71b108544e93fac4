#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources, then runs it from the
# checkout root with the given arguments:
#
#	bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build in the
# checkout; no network access is needed (the module has no dependencies
# beyond the simulator it measures).
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" "$@"
