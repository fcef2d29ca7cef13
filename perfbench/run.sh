#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload dispatch_hot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory. Without the nitro module one directory up the build
# fails and the script exits non-zero before printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
# Keep the go command's cache, temporary files, module paths and its
# configuration and telemetry directory (under XDG_CONFIG_HOME) inside
# .bench_build; the module needs nothing from the network.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
