#!/usr/bin/env bash
# Builds the qsd benchmark from the checkout it is run in and runs it.
#
# Run from the root of a checkout:
#   bash qsdbench/run.sh --workload batch-replay --seed 1 --seconds 20 --trace 0
#   bash qsdbench/run.sh compare parent.jsonl change.jsonl
#   bash qsdbench/run.sh ladder --rung-seconds 8 --reps 3
#
# Everything the build and the runs write stays under .bench_build in the
# checkout: the Go build cache, the binary, scratch stores, results and
# traces.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local CGO_ENABLED=0
go -C "$root/qsdbench" build -o "$build/qsdbench" .
exec "$build/qsdbench" "$@"
