#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh -seed 1
#   bash bench/run.sh --workload arb-1m --seed 3 --seconds 10 --trace 0
#
# bench is a module of its own (see bench/README.md#running-it), so this
# script builds it rather than `go run ./bench`. Everything the build and
# the run write stays under .bench_build/ in the current directory: the Go
# build cache, the binary, generated graphs, traces and the appended run
# records. The build cache lives there too, so the benchmark reads and
# writes nothing outside the tree it runs in; the price is a full build,
# about 15 s, the first time in a fresh tree.
set -euo pipefail

src=$(cd "$(dirname "$0")" && pwd)
out=$PWD/.bench_build
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$src" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
