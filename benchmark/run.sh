#!/usr/bin/env bash
# Entry point of the repo benchmark (the "command" of BENCHMARK.json):
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds cmd/bench and cmd/benchserver from the checkout's source and runs
# the driver. Everything it writes — Go build cache, binaries, the prepared
# world, results, trace.jsonl — goes under .bench_build/ at the checkout
# root, which .gitignore names. Other driver flags (-suite, -compare, -short,
# see benchmark/README.md) pass through.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp" "$build/work"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/bin/" ./cmd/bench ./cmd/benchserver)

exec "$build/bin/bench" -out "$build/work" "$@"
