#!/usr/bin/env python3
"""Compares two sets of benchmark result records, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--spec BENCHMARK.json]

Each directory holds the records run.py writes (.bench_results/*.json by
default), made with identical benchmark code and settings on both commits.
Only untraced records count. For each workload and end-to-end metric it
prints both sides' median and quartiles, the share of runs the change won
when runs are paired by seed, and a verdict: improved, within bound, worse,
or unresolved (see benchstats.py). Exits 1 when any verdict is worse.
"""

import argparse
import glob
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchstats  # noqa: E402


def load_records(directory):
    """{workload: {seed: metrics}} from the untraced records in directory."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        if record.get("trace") != 0 or "metrics" not in record:
            continue
        seed = record.get("stamp", {}).get("seed", record.get("seed"))
        out.setdefault(record["workload"], {})[seed] = record["metrics"]
    return out


def pair_runs(parent, change, metric):
    """Pairs runs of the same seed; unmatched seeds pair in sorted order."""
    p = {s: m[metric]["value"] for s, m in parent.items() if metric in m}
    c = {s: m[metric]["value"] for s, m in change.items() if metric in m}
    shared = sorted(set(p) & set(c))
    pairs = [(p[s], c[s]) for s in shared]
    rest_p = [p[s] for s in sorted(set(p) - set(shared))]
    rest_c = [c[s] for s in sorted(set(c) - set(shared))]
    pairs += list(zip(rest_p, rest_c))
    return pairs


def compare(parent, change, spec):
    """Rows of (workload, metric, unit, parent q, change q, wins, n, verdict)."""
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in parent or workload not in change:
            continue
        for m in spec["end_to_end"]:
            pairs = pair_runs(parent[workload], change[workload], m["name"])
            if not pairs:
                continue
            rows.append((
                workload, m["name"], m["unit"],
                benchstats.quartiles([p for p, _ in pairs]),
                benchstats.quartiles([c for _, c in pairs]),
                benchstats.win_share(pairs, m["better"]), len(pairs),
                benchstats.verdict(pairs, m["better"], m["bound"])))
    return rows


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--spec", default="BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(args.spec) as f:
        spec = json.load(f)
    rows = compare(load_records(args.parent), load_records(args.change), spec)
    if not rows:
        print("compare: no workload has records on both sides", file=sys.stderr)
        return 2
    fmt = "{:<9} {:<13} {:<5} {:>30} {:>30} {:>9} {}"
    print(fmt.format("workload", "metric", "unit", "parent median [q1, q3]",
                     "change median [q1, q3]", "won", "verdict"))
    for workload, metric, unit, pq, cq, wins, n, verdict in rows:
        side = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"  # noqa: E731
        print(fmt.format(workload, metric, unit, side(pq), side(cq),
                         f"{round(wins * n)}/{n}", verdict))
    return 1 if any(r[-1] == benchstats.WORSE for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
