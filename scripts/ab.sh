#!/usr/bin/env bash
# A/B check: runs the repository's benchmark (bench/, BENCHMARK.json) on
# two commits in interleaved pairs and says, per metric, whether the
# change moved it. The time metrics (ops_s, cpu_us_per_op, lat_p50_us)
# carry no bound in BENCHMARK.json because this class of machine drifts
# 15-25 % over minutes (bench/AA.md); pairing cancels the drift, so this
# is the only way to claim, or rule out, a speed-up.
#
#   scripts/ab.sh PARENT CHANGE RUNS [WORKLOAD...] > table.md
#
# PARENT and CHANGE are commits (anything `git rev-parse` takes). To
# measure uncommitted work, stage it and pass a stash commit, which
# leaves the working tree alone:
#
#   git add -A && scripts/ab.sh HEAD "$(git stash create)" 10 lib_get_k1
#
# RUNS is the number of pairs (10 at least for a claim); WORKLOAD
# defaults to every workload in BENCHMARK.json. Each side is a checkout
# of its commit's files under .bench_build/ab/, built by its own
# bench/run.sh, so each side runs the benchmark code of its own commit.
# The checkouts are `git archive` exports rather than `git worktree`s:
# they are what a driver that benchmarks committed files sees, and an
# interrupted run leaves nothing registered in .git. Pair i runs both
# sides with seed i, the parent first when i is odd and the change first
# when it is even. A run takes BENCHMARK.json's run_seconds plus set-up;
# ten pairs of one workload take about 13 minutes.
#
# The verdict column follows the choosing-metrics rule: "gain" (or
# "loss") only if one side wins at least nine tenths of the pairs, ties
# counting for neither, and the medians differ by more than the distance
# between the parent's quartiles; "same" if every pair ties; otherwise
# "unresolved". Exit status 1 if any run was incorrect.
set -euo pipefail
if (($# < 3)); then
	sed -n '2,/^set -euo/{/^set -euo/d;s/^# \{0,1\}//;p}' "$0" >&2
	exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
parent="$(git rev-parse --verify "$1^{commit}")"
change="$(git rev-parse --verify "$2^{commit}")"
runs="$3"
shift 3
if (($# > 0)); then
	workloads=("$@")
else
	mapfile -t workloads < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$root/BENCHMARK.json")
fi
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"

ab="$root/.bench_build/ab"
out="$ab/out"
rm -rf "$out"
mkdir -p "$out"

# checkout exports commit $2 into $ab/$1, keeping an earlier export (and
# the benchmark binary built in it) when it is of the same commit.
checkout() {
	local side="$1" commit="$2" dir="$ab/$1"
	if [ "$(cat "$dir/.ab_commit" 2>/dev/null)" != "$commit" ]; then
		rm -rf "$dir"
		mkdir -p "$dir"
		git archive "$commit" | tar -x -C "$dir"
		echo "$commit" >"$dir/.ab_commit"
	fi
	# Build, and check that the side runs at all, outside the pairs.
	echo "$side $commit: build and smoke" >&2
	bash "$dir/bench/run.sh" --workload "${workloads[0]}" --seed 1 --quick --trace 0 >/dev/null
}
checkout parent "$parent"
checkout change "$change"

for ((pair = 1; pair <= runs; pair++)); do
	order=(parent change)
	if ((pair % 2 == 0)); then order=(change parent); fi
	for wl in "${workloads[@]}"; do
		for side in "${order[@]}"; do
			echo "pair $pair/$runs: $wl $side" >&2
			bash "$ab/$side/bench/run.sh" --workload "$wl" --seed "$pair" --seconds "$seconds" --trace 0 \
				>"$out/$wl.$side.$pair.txt" || echo "pair $pair: $wl $side exited $?" >&2
		done
	done
done

python3 - "$root/BENCHMARK.json" "$out" "$runs" "$parent" "$change" "$seconds" "${workloads[@]}" <<'PY'
import json
import math
import statistics
import sys

spec = json.load(open(sys.argv[1]))
out, runs, parent, change, seconds = sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5], sys.argv[6]
workloads = sys.argv[7:]
# Time metrics come from the untraced run's printed table, the bounded
# ones from its JSON line.
printed = [("ops_s", "higher"), ("cpu_us_per_op", "lower"), ("lat_p50_us", "lower")]
bounded = [(m["name"], m["better"]) for m in spec["end_to_end"]]


def read(path):
    lines = open(path).read().splitlines()
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 3 and fields[0] in dict(printed):
            values[fields[0]] = float(fields[1])
    return result["correct"] and result["failed"] == 0, values


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def sign_test(wins, losses):
    """Two-sided p of at least this imbalance among untied pairs."""
    n, k = wins + losses, max(wins, losses)
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(k, n + 1)) / 2 ** n
    return min(1.0, 2 * tail)


incorrect = False
for wl in workloads:
    sides = {}
    for side in ("parent", "change"):
        rows = []
        for pair in range(1, runs + 1):
            try:
                ok, values = read(f"{out}/{wl}.{side}.{pair}.txt")
            except (OSError, ValueError, IndexError, KeyError) as e:
                ok, values = False, None
                print(f"{wl} {side} pair {pair}: no result ({e})", file=sys.stderr)
            if not ok:
                incorrect = True
                print(f"{wl} {side} pair {pair}: incorrect run", file=sys.stderr)
            rows.append(values)
        sides[side] = rows
    print(f"### {wl}: {runs} interleaved pairs of {seconds} s, parent {parent[:7]} vs change {change[:7]}, seeds 1..{runs}\n")
    print("| metric | parent median [q1, q3] | change median [q1, q3] | change − parent | pairs won / tied / lost | sign test p | verdict |")
    print("|---|---:|---:|---:|:---:|---:|---|")
    for name, better in printed + bounded:
        pairs = [(p[name], c[name]) for p, c in zip(sides["parent"], sides["change"])
                 if p is not None and c is not None and name in p and name in c]
        if not pairs:
            continue
        ps, cs = [p for p, _ in pairs], [c for _, c in pairs]
        sign = 1 if better == "higher" else -1
        wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
        losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
        ties = len(pairs) - wins - losses
        pm, cm = statistics.median(ps), statistics.median(cs)
        pq1, pq3 = quartiles(ps)
        cq1, cq3 = quartiles(cs)
        beyond = abs(cm - pm) > pq3 - pq1
        if ties == len(pairs):
            verdict = "same"
        elif wins >= 0.9 * len(pairs) and sign * (cm - pm) > 0 and beyond:
            verdict = "gain"
        elif losses >= 0.9 * len(pairs) and sign * (cm - pm) < 0 and beyond:
            verdict = "loss"
        else:
            verdict = "unresolved"
        rel = f" ({100 * (cm - pm) / pm:+.1f}%)" if pm else ""
        print(f"| `{name}` | {pm:.6g} [{pq1:.6g}, {pq3:.6g}] | {cm:.6g} [{cq1:.6g}, {cq3:.6g}] | {cm - pm:+.4g}{rel} "
              f"| {wins} / {ties} / {losses} | {sign_test(wins, losses):.3g} | {verdict} |")
    print()
sys.exit(1 if incorrect else 0)
PY
