#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, keeping the
# Go build cache and every temporary file under .bench_build/ in the
# checkout. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper --seed 42 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
	GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
# Collect garbage with the world stopped, sweep included: the collector then
# runs at fixed points of the allocation sequence, so peak RSS is a pure
# function of the program's allocations (a concurrent collector moves it by
# a third between identical runs) and GC work counts in wall time instead of
# hiding on another core.
GODEBUG=gcstoptheworld=2 exec "$out/perfbench" "$@"
