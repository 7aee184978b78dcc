#!/usr/bin/env bash
# loc.sh — the code-size number ROADMAP item 1 tracks: lines of non-test
# Go outside the nested benchmarks/ module (and its build directory).
set -euo pipefail
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './benchmarks/*' ! -path './.bench_build/*' -print0 |
	xargs -0 cat | wc -l
