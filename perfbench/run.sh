#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Run from the repository root:
#
#   bash perfbench/run.sh --workload serial-uniform --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and telemetry stay under
# .bench_build/ in the current directory, so the run reads and writes
# nothing outside it.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
# Build output goes to standard error: the last line of standard output
# is the benchmark's JSON result.
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
