#!/usr/bin/env bash
# Builds the benchmark and the odinserve binary from this checkout into
# .bench_build/ (Go build cache included), then runs the benchmark with the
# given arguments. Run from the repository root:
#
#   bash _perfbench/run.sh --workload sim-fig8 --seed 1 --seconds 25 --trace 0
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C _perfbench -o "$out/perfbench" .
go build -C _perfbench -o "$out/odinserve" odin/cmd/odinserve
PERFBENCH_BIN="$out" PERFBENCH_COMMIT="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)" \
	exec "$out/perfbench" "$@"
