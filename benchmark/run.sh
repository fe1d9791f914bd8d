#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is in and runs it
# with the arguments given. Everything the toolchain writes — build cache,
# module cache, temporary files, telemetry, the binary — stays under
# .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
go -C benchmark build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
