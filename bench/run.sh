#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root:
#
#   bash bench/run.sh --workload sim-oltp-reunion --seed 1 --seconds 10 --trace 0
#
# Every build output, cache and scratch file stays under .bench_build/ in
# the checkout. The first run in a fresh checkout compiles the standard
# library into that cache (tens of seconds); later runs reuse it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
