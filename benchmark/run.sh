#!/bin/bash
# The command BENCHMARK.json names: builds ./benchmark from source and runs it
# with the arguments given, keeping everything the Go toolchain writes (build
# cache, temporary files, the binary) inside the checkout, under .bench_build/.
# `go run ./benchmark` does the same with the toolchain's usual directories.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
