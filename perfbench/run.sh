#!/usr/bin/env bash
# Builds the benchmark from this source tree and runs it. Run from the
# repository root; all arguments are passed through, for example:
#
#   bash perfbench/run.sh --workload serve-ft06-small --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files, job stores and span files all stay
# under .bench_build/perfbench in the working directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly CGO_ENABLED=0

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
