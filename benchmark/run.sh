#!/usr/bin/env bash
# Builds the benchmark and runs it with every file the Go toolchain writes
# (build cache, temp files) kept under benchmark/out/, so a run reads and
# writes nothing outside the checkout. The benchmark binary replaces this
# shell, so signals and exit codes are its own.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out/gocache out/gopath out/tmp out/bin
export GOCACHE="$PWD/out/gocache" GOPATH="$PWD/out/gopath" GOTMPDIR="$PWD/out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go build -o out/bin/benchmark .
exec out/bin/benchmark "$@"
