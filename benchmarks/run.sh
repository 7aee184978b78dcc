#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to the
# binary (see README.md). The command BENCHMARK.json names, run from the
# root of a checkout:
#
#   bash benchmarks/run.sh --workload meshB-grow --seed 1994 --seconds 10 --trace 0
#
# Everything the build and the run write — Go's build cache and temp files
# included — stays under .bench_build/ in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$out/bench" ./cmd/bench)
cd "$root"
exec "$out/bench" "$@"
