#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it sits in and runs it
# with the given arguments (see main.go). Run from the repository root:
#
#   bash e2ebench/run.sh --workload cell --seed 1 --seconds 20 --trace 0
#
# Binaries, the Go build cache and temporary files stay in the build
# directory: $CARGO_TARGET_DIR if set, else .bench_build.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build/tmp"
build=$(cd "$build" && pwd)

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$here" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" -work-dir "$build/tmp" -trace-out "$build/trace.json" "$@"
