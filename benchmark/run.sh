#!/usr/bin/env bash
# The benchmark's entry point, for the driver and by hand: builds the
# benchmark (a module of its own in this directory, see go.mod) against
# the repository's sources and runs it from the repository root, passing
# every argument through. The build cache, the temporary build directory,
# the go command's own settings and counters (XDG_CONFIG_HOME) and the
# binary all live under .bench_build/, so nothing is written outside the
# checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: run from the repository root: the benchmark is built against the repository's sources" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
