#!/usr/bin/env bash
# trajectory.sh — one BENCH_<n>.json record of the repo benchmark: every
# workload BENCHMARK.json names, at seed 1994 and its run_seconds, run
# twice through benchmarks/run.sh. The --trace 0 run gives the end-to-end
# metrics, the --trace 1 run the per-layer ones (a traced run reports
# those instead). Each run's last output line (correct, attempted, failed,
# metrics) is kept whole. Any run that fails its output checks stops the
# sweep with a nonzero exit and no file written.
#
# Usage:  scripts/trajectory.sh <n>     # writes BENCH_<n>.json at the repo root (needs jq)
set -euo pipefail
cd "$(dirname "$0")/.."

n="${1:?usage: scripts/trajectory.sh <n>}"
seed=1994
seconds="$(jq -r .run_seconds BENCHMARK.json)"
workloads='{}'
for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
	for key in end_to_end layers; do
		trace=0
		[ "$key" = layers ] && trace=1
		line="$(bash benchmarks/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" \
			--trace "$trace" | tee >(cat >&2) | tail -n 1)"
		jq -e .correct <<<"$line" >/dev/null || { echo "trajectory: $w --trace $trace is not correct" >&2; exit 1; }
		workloads="$(jq -c --arg w "$w" --arg k "$key" --argjson r "$line" '.[$w][$k] = $r' <<<"$workloads")"
	done
done
jq -n --argjson n "$n" --arg commit "$(git describe --always --dirty --exclude='*')" --argjson seed "$seed" \
	--argjson w "$workloads" '{trajectory: $n, commit: $commit, seed: $seed, workloads: $w}' >"BENCH_$n.json"
echo "wrote BENCH_$n.json"
