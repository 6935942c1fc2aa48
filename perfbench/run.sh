#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash perfbench/run.sh --workload faults-allreduce --seed 1 --seconds 50 --trace 0
#
# Every file the build and the runs write stays under .bench_build/ in the
# current directory: the Go build and module caches, the binary and the
# JSON reports.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build="$PWD/.bench_build/perfbench"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOSUMDB=off
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
