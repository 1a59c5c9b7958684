#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root, passing every argument through. The Go build cache,
# temporary files and the go command's own config and telemetry stay
# under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$GOCACHE" "$GOTMPDIR" "$XDG_CONFIG_HOME"
go -C lbbench build -buildvcs=false -o "$out/lbbench-bin" .
exec "$out/lbbench-bin" "$@"
