#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there. Everything the Go toolchain writes (build
# cache, work directories, telemetry, module cache) is kept inside the
# checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: the program under test (go.mod, internal/) is not in $root" >&2
	exit 1
fi
build="$root/.bench_build"
# Go telemetry is switched off before the first go command: with a fresh
# XDG_CONFIG_HOME the toolchain would otherwise start a detached telemetry
# child that can outlive this script.
mkdir -p "$build/tmp" "$build/config/go/telemetry"
echo off > "$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/pierbench" .
exec "$build/pierbench" "$@"
