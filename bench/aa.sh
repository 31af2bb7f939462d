#!/usr/bin/env bash
# A/A check: runs every workload RUNS times in each of SETS sets on the
# same code, every run with its own seed, and compares the sets. The sets
# are interleaved (one run of each set per round) and the workload order
# is reversed every other round, so that drift of the machine falls on
# all sets alike. aa_report.py then prints, for every end-to-end metric of
# every workload, each set's median, the largest spread within a set and
# the largest difference between two sets' medians beside the bound from
# BENCHMARK.json, and fails if a difference or a spread exceeds its
# bound.
#
#   bench/aa.sh [RUNS [SETS]] > table.md       (defaults: 10 runs, 2 sets)
#
# Ten runs of two sets take about 45 minutes.
set -euo pipefail
runs="${1:-10}"
sets="${2:-2}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$here/out/aa"
rm -rf "$out"
mkdir -p "$out"

mapfile -t names < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$root/BENCHMARK.json")
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"

for ((round = 1; round <= runs; round++)); do
	order=("${names[@]}")
	if ((round % 2 == 0)); then
		order=()
		for ((i = ${#names[@]} - 1; i >= 0; i--)); do order+=("${names[i]}"); done
	fi
	for wl in "${order[@]}"; do
		for ((set = 1; set <= sets; set++)); do
			seed=$((set * 1000 + round))
			echo "round $round/$runs: $wl set $set seed $seed" >&2
			bash "$here/run.sh" --workload "$wl" --seed "$seed" --seconds "$seconds" --trace 0 |
				tail -n 1 >>"$out/$wl.set$set.jsonl"
		done
	done
done

python3 "$here/aa_report.py" "$root/BENCHMARK.json" "$out" "$sets"
