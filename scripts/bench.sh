#!/usr/bin/env bash
# bench.sh — verify step + phase-benchmark trajectory.
#
# Runs static checks (go vet, gofmt), the tier-1 tests, a race-detector
# pass, then the hot-path phase benchmarks with -benchmem, and writes the
# parsed results — including the pipeline's per-phase wall-clock from
# Stats.PhaseTimings (via `igpbench -table phases`) — to BENCH_<N>.json
# (default BENCH_1.json) at the repo root so successive PRs accumulate a
# performance trajectory.
#
# Usage:  scripts/bench.sh [N]
#   N        trajectory index (default 1)
#   BENCH_FILTER   override the benchmark regexp
#   BENCH_TIME     override -benchtime (default 200x)
#   BENCH_SKIP_RACE=1   skip the race-detector pass (slow machines)
#   BENCH_SMOKE=1  CI smoke mode: short -benchtime (default 10x) and the
#                  race pass skipped unless BENCH_SKIP_RACE=0 — quick
#                  enough to run on every PR while still producing a
#                  complete BENCH_<N>.json artifact
set -euo pipefail
cd "$(dirname "$0")/.."

idx="${1:-1}"
out="BENCH_${idx}.json"
filter="${BENCH_FILTER:-BenchmarkPhase_|BenchmarkRefine_|BenchmarkEngine_|BenchmarkFig11_IGP}"
if [ "${BENCH_SMOKE:-0}" = "1" ]; then
    benchtime="${BENCH_TIME:-10x}"
    : "${BENCH_SKIP_RACE:=1}"
else
    benchtime="${BENCH_TIME:-200x}"
    : "${BENCH_SKIP_RACE:=0}"
fi

echo "== go vet =="
go vet ./...

echo "== gofmt =="
# awk (not `grep -v`) filters the vendor prefix: grep exits 1 on empty
# input, which `set -o pipefail` would turn into a hard failure on a
# clean tree with no vendor/ directory. awk exits 0 either way, on
# every POSIX implementation.
badfmt="$(gofmt -l . | awk '!/^vendor\//')"
if [ -n "$badfmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$badfmt" >&2
    exit 1
fi

echo "== go test (tier 1) =="
go test ./... > /dev/null

if [ "${BENCH_SKIP_RACE}" != "1" ]; then
    echo "== go test -race =="
    go test -race ./... > /dev/null
fi

echo "== phase timings (igpbench -table phases) =="
phases="$(go run ./cmd/igpbench -table phases)"
echo "$phases"

# Per-solver comparison table: the same IGPR workload once per
# registered solver — wall clock, LP iteration totals and cut quality
# side by side. It also names the registry for the loop below.
echo "== solver comparison (igpbench -table solvers) =="
solver_cmp="$(go run ./cmd/igpbench -table solvers -json)"
echo "$solver_cmp"

# Per-solver phase/pivot rows: the same workload under every registered
# simplex (network and its dense oracle), so the trajectory records
# tree and tableau pivot counts side by side. The default solver's row is the record measured above;
# every other name in the comparison table gets a run of its own.
echo "== per-solver phase timings =="
default_solver="$(sed -n 's/.*"solver": "\([^"]*\)".*/\1/p' <<<"$phases")"
solver_rows="$phases"
for s in $(grep -o '"solver": "[^"]*"' <<<"$solver_cmp" | cut -d'"' -f4); do
    [ "$s" = "$default_solver" ] && continue
    row="$(go run ./cmd/igpbench -table phases -solver "$s")"
    echo "$row"
    solver_rows="$solver_rows,
    $row"
done

# Sequential vs parallel pipeline rows: the sharded-kernel speedup
# evidence. procs=1 and the acceptance-criterion procs=8 row are
# measured fresh (8 workers on a c-core host time-slice c cores, so the
# 8-worker row demonstrates real speedup on any multi-core machine and
# only degenerates on 1 CPU); the base record above already ran at the
# default GOMAXPROCS parallelism and is reused as the third row.
echo "== per-procs phase timings =="
procs_rows=""
for pr in 1 8; do
    row="$(go run ./cmd/igpbench -table phases -procs "$pr")"
    echo "$row"
    if [ -n "$procs_rows" ]; then
        procs_rows="$procs_rows,
    $row"
    else
        procs_rows="$row"
    fi
done
echo "$phases"
procs_rows="$procs_rows,
    $phases"

# Incremental-edit workload: warm k-edit Repartition cost vs delta size
# on both mesh families, against the Options.FullRefresh
# full-recomputation baseline — the evidence that the journal-driven
# delta pipeline makes warm refresh cost scale with the edit, not with
# n+m.
echo "== incremental-edit workload (igpbench -table incremental) =="
incr="$(go run ./cmd/igpbench -table incremental -json)"
echo "$incr"

# Serve latency: the igpserve stack (session pool + coalescing +
# admission control) measured end to end over real HTTP at several
# concurrency levels. Skipped in smoke mode — the table boots servers
# and drives thousands of requests, too slow for the per-PR CI lane
# (the CI serve job's igpserve -smoke covers the stack there).
if [ "${BENCH_SMOKE:-0}" = "1" ]; then
    echo "== serve latency: skipped (BENCH_SMOKE=1) =="
    serve_rows=""
else
    echo "== serve latency (igpbench -table serve) =="
    serve_rows=""
    while IFS= read -r row; do
        echo "$row"
        if [ -n "$serve_rows" ]; then
            serve_rows="$serve_rows,
    $row"
        else
            serve_rows="$row"
        fi
    done < <(go run ./cmd/igpbench -table serve -json)
fi

# Large-graph multilevel tier: V-cycle cold/idle/warm rows on the
# paper-scale grid and power-law workloads at P=8 — cold build, a
# size-preserving 8-edit burst (arrives balanced: V-cycle skipped) and a
# 64-vertex growth burst (arrives imbalanced: hierarchy repaired) —
# repeated at worker counts 1 and 8 (-procslist) so the artifact records
# the V-cycle scaling curve — the rows are bit-identical across counts,
# only the wall clock moves. Full mode runs n = 10⁵ with the flat RSB
# from-scratch baseline on the grid — the evidence that the V-cycle
# beats flat at n ≥ 10⁵ and what an idle and a repairing warm
# Repartition cost. Smoke mode shrinks n and drops the flat baseline
# (minutes of wall clock) but keeps -check, so the tier's hard contract
# still gates CI.
if [ "${BENCH_SMOKE:-0}" = "1" ]; then
    echo "== multilevel tier (igpbench -table multilevel -check, smoke n=20000) =="
    ml="$(go run ./cmd/igpbench -table multilevel -check -n 20000 -p 8 -procslist 1,8 -json)"
else
    echo "== multilevel tier (igpbench -table multilevel, n=100000) =="
    ml="$(go run ./cmd/igpbench -table multilevel -n 100000 -p 8 -procslist 1,8 -json)"
fi
echo "$ml"

# Million-vertex tier: the paper-scale n ≈ 10⁶ workloads at worker
# counts 1 and 8, in -check mode (the flat RSB baseline at 10⁶ is
# hours, not minutes — the 10⁵ row above anchors the flat comparison).
# Full mode only: several minutes of wall clock, far too slow for the
# per-PR smoke lane.
if [ "${BENCH_SMOKE:-0}" = "1" ]; then
    echo "== multilevel 10^6 tier: skipped (BENCH_SMOKE=1) =="
    ml1m="null"
else
    echo "== multilevel 10^6 tier (igpbench -table multilevel -check, n=1000000) =="
    ml1m="$(go run ./cmd/igpbench -table multilevel -check -n 1000000 -p 8 -procslist 1,8 -json)"
fi
echo "$ml1m"

echo "== benchmarks ($filter) =="
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
go test -run '^$' -bench "$filter" -benchmem -benchtime "$benchtime" . | tee "$raw"

# Parse `BenchmarkName  N  X ns/op  Y B/op  Z allocs/op` lines into JSON,
# folding in the per-phase timing record and the per-solver/per-procs rows.
awk -v idx="$idx" -v phases="$phases" -v solvers="$solver_rows" -v procs="$procs_rows" -v cmp="$solver_cmp" -v incr="$incr" -v serve="$serve_rows" -v ml="$ml" -v ml1m="$ml1m" '
BEGIN { n = 0 }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i-1)
        if ($i == "B/op")      bytes = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
    }
    if (ns == "") next
    rows[n++] = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
                        name, ns, (bytes == "" ? "null" : bytes), (allocs == "" ? "null" : allocs))
}
END {
    if (serve == "") serve_json = "[]"
    else             serve_json = sprintf("[\n    %s\n  ]", serve)
    printf "{\n  \"trajectory\": %s,\n  \"phase_timings\": %s,\n  \"phase_timings_by_solver\": [\n    %s\n  ],\n  \"phase_timings_by_procs\": [\n    %s\n  ],\n  \"solver_comparison\": %s,\n  \"incremental_edits\": %s,\n  \"serve_latency\": %s,\n  \"multilevel\": %s,\n  \"multilevel_1m\": %s,\n  \"benchmarks\": [\n", idx, phases, solvers, procs, cmp, incr, serve_json, ml, ml1m
    for (i = 0; i < n; i++) printf "%s%s\n", rows[i], (i < n-1 ? "," : "")
    printf "  ]\n}\n"
}' "$raw" > "$out"

echo "wrote $out"
