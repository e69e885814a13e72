#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from the
# checkout it sits in and runs it with the arguments given, keeping the
# Go build cache and every output inside the checkout: .bench_build/
# for builds, benchmark/out/ for results, span files and scratch data.
# The benchmark in turn builds cmd/rdfserve from the same checkout, so a
# directory without the program's source fails here, before any run.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOPATH="$PWD/.bench_build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
