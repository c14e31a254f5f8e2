#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments (see _perfbench/README.md). Run from the repository root:
#
#   bash _perfbench/run.sh --workload analyze-warm --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off CGO_ENABLED=0
go -C "$root/_perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
