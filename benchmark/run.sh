#!/usr/bin/env bash
# Entry point named in BENCHMARK.json. Builds the benchmark from the checkout
# it is started in (the root of the repository) and runs it with the driver's
# arguments. Everything the Go tool writes (binaries, build cache, its
# configuration directory) stays inside the checkout under .bench_build/.
set -euo pipefail
if ! grep -qx 'module prefdb' go.mod 2>/dev/null; then
	echo "benchmark: no go.mod of module prefdb in $PWD: run from the root of a checkout" >&2
	exit 1
fi
mkdir -p .bench_build/bin .bench_build/config/go/telemetry
export GOCACHE="$PWD/.bench_build/gocache" XDG_CONFIG_HOME="$PWD/.bench_build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
# With telemetry on (the default, "local"), every go command starts a detached
# counter-upload child that can outlive this script. No go command may run
# before this file says off.
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o .bench_build/bin/prefbench ./benchmark
exec .bench_build/bin/prefbench "$@"
