#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run in, then
# runs it with the given arguments. Run it from the checkout's root:
#
#   bash perfbench/run.sh --workload dc-hadoop --seed 1 --seconds 20 --trace 0
#
# The binary, Go build cache and temporary files stay under .bench_build.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
    XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
