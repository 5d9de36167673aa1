#!/usr/bin/env bash
# Builds the benchmark from this checkout into .bench_build/ and runs it:
#
#   bash perfbench/run.sh --workload adaptive_batch --seed 1 --seconds 30 --trace 0
#
# The Go build cache lives in .bench_build/ too, so the first run in a
# fresh checkout compiles from scratch and later runs reuse it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
