#!/usr/bin/env bash
# Builds corgi-bench from this checkout's source and runs it with the given
# arguments, from the repository root:
#
#   bash bench/run.sh --workload replay_inproc --seed 1 --seconds 20 --trace 0
#
# The binary, Go's build cache and every temporary file live under
# .bench_build/ in the working directory, so a run reads and writes nothing
# outside the checkout. The first build in a fresh checkout compiles the
# standard library too (about a minute on two cores); later ones take a
# second.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/corgi-bench" ./bench
exec "$build/corgi-bench" "$@"
