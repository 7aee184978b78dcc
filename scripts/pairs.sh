#!/usr/bin/env bash
# pairs.sh — the paired-run evidence a perf PR's CHANGES.md entry quotes:
# one workload of the repo benchmark, run on a parent commit and on this
# working tree in interleaved pairs (one pair per seed given; repeat a
# seed to repeat it), alternating which side goes first, then per
# end-to-end metric both sides' median and quartiles, the PR's wins
# (ties count for neither) and the failed-op totals.
#
# Usage:  scripts/pairs.sh [--seconds N] <parent-ref> <workload> <seed>...
#   --seconds N   run length per side (default 10, what BENCHMARK.json runs)
#
# The parent is exported with `git archive` into .bench_build/pairs/<sha>
# (git-ignored, reused across invocations) and built there by its own
# benchmarks/run.sh, so nothing outside .bench_build/ is written and
# benchmarks/ is not touched. Every run is --trace 0.
set -euo pipefail
cd "$(dirname "$0")/.."

seconds=10
if [ "${1:-}" = "--seconds" ]; then
	seconds="${2:?--seconds needs a value}"
	shift 2
fi
if [ $# -lt 3 ]; then
	echo "usage: scripts/pairs.sh [--seconds N] <parent-ref> <workload> <seed>..." >&2
	exit 2
fi
ref="$1"
workload="$2"
shift 2

sha="$(git rev-parse --verify "${ref}^{commit}")"
parent=".bench_build/pairs/$sha"
if [ ! -d "$parent" ]; then
	mkdir -p "$parent"
	git archive "$sha" | tar -x -C "$parent"
fi
rows="$(mktemp -p .bench_build pairs.XXXXXX)"
trap 'rm -f "$rows"' EXIT

# run <side> <dir> <pair> <seed>: one benchmark run; appends
# "<pair> <side> <metric> <value>" rows (failed included) to $rows.
run() {
	local side="$1" dir="$2" pair="$3" seed="$4" out
	out="$(cd "$dir" && bash benchmarks/run.sh --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace 0)"
	printf '%s\n' "$out" | awk -v pair="$pair" -v side="$side" '
		$1 == "workload" { for (i = 1; i < NF; i++) if ($i == "failed") print pair, side, "failed", $(i + 1) }
		/^  [a-z_0-9.]+ +[-0-9.e+]+ / { print pair, side, $1, $2 }' >>"$rows"
}

echo "$workload: $# pairs, parent $(git rev-parse --short "$sha") vs working tree, --seconds $seconds --trace 0"
pair=0
for seed in "$@"; do
	pair=$((pair + 1))
	if [ $((pair % 2)) -eq 1 ]; then
		order="parent first"
		run parent "$parent" "$pair" "$seed"
		run pr . "$pair" "$seed"
	else
		order="PR first"
		run pr . "$pair" "$seed"
		run parent "$parent" "$pair" "$seed"
	fi
	awk -v pair="$pair" -v head="pair $pair seed $seed ($order):" '
		$1 == pair { v[$3, $2] = $4; if (!($3 in seen)) { seen[$3] = 1; names[++n] = $3 } }
		END {
			printf "%s", head
			for (i = 1; i <= n; i++) printf "  %s %s -> %s", names[i], v[names[i], "parent"], v[names[i], "pr"]
			printf "\n"
		}' "$rows"
done

# Direction of each metric, from BENCHMARK.json ("name" precedes "better").
awk '
	FNR == NR {
		if ($1 == "\"name\":") { gsub(/[",]/, "", $2); name = $2 }
		if ($1 == "\"better\":") { gsub(/[",]/, "", $2); better[name] = $2 }
		next
	}
	{
		val[$3, $2, $1] = $4
		if ($1 > pairs) pairs = $1
		if (!($3 in seen)) { seen[$3] = 1; names[++n] = $3 }
	}
	# quantile q of one side of a metric, linear between order statistics
	function quantile(metric, side, q,    i, j, t, pos, lo) {
		for (i = 1; i <= pairs; i++) s[i] = val[metric, side, i] + 0
		for (i = 2; i <= pairs; i++) { t = s[i]; for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]; s[j + 1] = t }
		pos = 1 + (pairs - 1) * q; lo = int(pos)
		return lo >= pairs ? s[pairs] : s[lo] + (pos - lo) * (s[lo + 1] - s[lo])
	}
	END {
		printf "%-16s %-38s %-38s %s\n", "metric", "parent median [q1, q3]", "PR median [q1, q3]", "PR wins"
		for (k = 1; k <= n; k++) {
			m = names[k]
			if (m == "failed") {
				for (i = 1; i <= pairs; i++) { fp += val[m, "parent", i]; fr += val[m, "pr", i] }
				continue
			}
			wins = 0
			for (i = 1; i <= pairs; i++) {
				d = val[m, "pr", i] - val[m, "parent", i]
				if (better[m] == "higher") d = -d
				if (d < 0) wins++
			}
			printf "%-16s %-38s %-38s %d/%d\n", m,
				sprintf("%.6g [%.6g, %.6g]", quantile(m, "parent", 0.5), quantile(m, "parent", 0.25), quantile(m, "parent", 0.75)),
				sprintf("%.6g [%.6g, %.6g]", quantile(m, "pr", 0.5), quantile(m, "pr", 0.25), quantile(m, "pr", 0.75)),
				wins, pairs
		}
		printf "%-16s %-38d %-38d\n", "failed", fp, fr
	}' BENCHMARK.json "$rows"
