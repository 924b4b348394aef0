#!/usr/bin/env bash
# Builds partitiond and the perfbench load generator from this checkout and
# runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-binary --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload all --seed 1
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/perfbench"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/partitiond" ./cmd/partitiond
go -C perfbench build -o "$out/perfbench-bin" .

commit=unknown
if [ -d .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench-bin" --bin "$out/partitiond" --out "$out/perfbench" --commit "$commit" "$@"
