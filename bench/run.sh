#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from this checkout's
# source, inside the checkout, and run it from the repository root with the
# given arguments. bench/ is a module of its own (napawine/bench, replacing
# napawine with the checkout around it), so the repository's own
# `go build ./... && go test ./...` never sees it.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod beside bench/ — the benchmark builds and measures this repository's packages and cannot run without them" >&2
	exit 1
fi
build="$PWD/.bench_build"
# Everything the go command writes (build cache, telemetry counters, a module
# cache it never fills) lands in the checkout; never fetch a toolchain; and
# ignore a caller's go.work or GOFLAGS, which could redirect the build.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$HOME"
go build -C bench -o "$build/napabench" .
exec "$build/napabench" "$@"
