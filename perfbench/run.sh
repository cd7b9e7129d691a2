#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload census-session --seed 2018 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, scratch
# stores, traces) lands under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
