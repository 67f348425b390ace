#!/usr/bin/env bash
# Builds the serving-plane benchmark from source and runs it with the
# given flags. Run it from the repository root, for example:
#
#   bash benchmark/run.sh -workload http-steady -seed 1
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ in the working directory.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=
go -C benchmark build -o "$build/mvcom-benchmark" .
exec "$build/mvcom-benchmark" "$@"
