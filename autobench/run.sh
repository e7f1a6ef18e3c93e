#!/usr/bin/env bash
# Builds autobench from source and runs it with the given arguments. Run it
# from the repository root:
#
#   bash autobench/run.sh --workload fleet-churn --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary and traced-run
# artifacts.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off

go -C autobench build -o "$build/bin/autobench" .
exec "$build/bin/autobench" "$@"
