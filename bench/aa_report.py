"""Tabulates an A/A check: sets of runs of the same code, compared.

    python3 bench/aa_report.py BENCHMARK.json DIR SETS [UNBOUNDED_METRIC ...]

DIR holds <workload>.set<N>.jsonl, one result line per run, as aa.sh
leaves them. For every end-to-end metric of every workload it prints each
set's median, the largest spread within a set (distance between the
quartiles as a share of the median, what the driver computes from ten
runs) and the largest amount by which one set's median is worse than
another's, beside the bound. It exits 1 if a difference or a spread
exceeds its bound (the spread of setup_s is exempt, as it is for the
driver). Metrics named after SETS are tabulated without a bound, if the
result lines carry them: that is how AA.md records what was measured for
the metrics that were denied one.
"""

import json
import statistics
import sys


def main():
    spec = json.load(open(sys.argv[1]))
    out, sets = sys.argv[2], int(sys.argv[3])
    metrics = spec["end_to_end"] + [{"name": n, "better": "lower", "bound": None} for n in sys.argv[4:]]
    failed = False
    print("| workload | metric | " + " | ".join(f"median set {s}" for s in range(1, sets + 1))
          + " | largest spread in a set | largest difference between sets | bound |")
    print("|---|---|" + "---:|" * (sets + 3))
    for w in spec["workloads"]:
        for m in metrics:
            medians, spreads = [], []
            for s in range(1, sets + 1):
                rows = [json.loads(line) for line in open(f"{out}/{w['name']}.set{s}.jsonl")]
                if not all(r["correct"] for r in rows):
                    failed = True
                    print(f"incorrect run of {w['name']} in set {s}", file=sys.stderr)
                values = [r["metrics"][m["name"]]["value"] for r in rows]
                med = statistics.median(values)
                medians.append(med)
                if len(values) >= 2:
                    q = statistics.quantiles(values, n=4)
                    spreads.append((q[2] - q[0]) / med)
            spread = max(spreads, default=0.0)
            # How much worse one set's median is than another's, as the
            # driver sees it when it takes them as parent and change. For a
            # metric without a bound the direction is not given: the
            # largest difference either way.
            sign = -1 if m["better"] == "higher" else 1
            diffs = [sign * (b - a) / a for a in medians for b in medians]
            diff = max(diffs, default=0.0)
            bound, verdict = "none", ""
            if m["bound"] is not None:
                bound = f"{100 * m['bound']:g}%"
                if diff > m["bound"] or (m["name"] != "setup_s" and spread > m["bound"]):
                    failed, verdict = True, " FAIL"
            print(f"| {w['name']} | {m['name']} | " + " | ".join(f"{x:.6g}" for x in medians)
                  + f" | {100 * spread:.2f}% | {100 * diff:.2f}% | {bound}{verdict} |")
    sys.exit(1 if failed else 0)


main()
