#!/usr/bin/env bash
# run.sh builds the benchmark from source and runs it. Run it from the
# repository root:
#
#   bash benchmark/run.sh --workload grid-local --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, the binary, job
# stores, span dumps and CPU profiles) stays under .bench_build in the
# current directory. The last line of standard output is the JSON result.
set -euo pipefail

root=$PWD
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"

export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
export TMPDIR="$build/tmp"

(cd "$root/benchmark" && go build -o "$build/bfdnbench" .) >&2
exec "$build/bfdnbench" -dir "$build" "$@"
