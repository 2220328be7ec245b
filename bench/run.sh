#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the Go toolchain
# writes (build cache, binary, temp files, its own config) goes under
# .bench_build in the checkout, so a run touches nothing outside it.
#
#   bash bench/run.sh --workload storm-sock --seed 1 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
(cd "$here" && go build -o "$build/automon-bench" .)
cd "$root"
exec "$build/automon-bench" "$@"
