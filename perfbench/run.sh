#!/usr/bin/env bash
# Builds the benchmark from the checked-out tree and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload bulk-ingest --seed 1 --seconds 10 --trace 0
#
# Build output, the Go build cache and per-run scratch directories all live
# under .bench_build/ in the repository root.
set -euo pipefail
root=$(pwd)
if [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" -root "$root" "$@"
