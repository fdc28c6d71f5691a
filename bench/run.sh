#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything either step
# writes (Go's caches and temporary files, the binary, the store
# directories) stays under .bench_build/ in the checkout this is
# started from.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -C "$(dirname "$0")" -o "$out/bench" .
exec "$out/bench" -dir "$out/stores" "$@"
