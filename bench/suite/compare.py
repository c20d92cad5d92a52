#!/usr/bin/env python3
"""Compares benchmark runs of a parent commit and a change.

  python3 bench/suite/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds results recorded with `run.py --record`, one JSON object
per line. Record the two sides alternately (parent, change, change,
parent, ...) with the same seeds and settings; the i-th run of a
workload on one side is paired with the i-th run on the other. Traced
runs are ignored.

For every end-to-end metric and workload, with the direction and bound
BENCHMARK.json gives it, the verdict is:

  gain        at least 10 pairs, the change wins at least 9 in 10 of
              them (ties count for neither side), and the medians differ,
              in the change's favour, by more than the parent's
              interquartile range; no gain counts when more units failed
              on the change than on the parent
  better      the spread is wider than the bound, but every change run
              reads better than every parent run
  unresolved  the spread (interquartile range over median, the wider of
              the two sides) is wider than the bound
  regression  the change's median is worse than the parent's by more
              than the bound
  ok          none of the above: no regression beyond the bound

The exit status is 1 when any row is a regression, else 0. Wall-clock
numbers compare only between runs on the same host.
"""

import argparse
import collections
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path):
    """Untraced runs per workload, in file order."""
    runs = collections.defaultdict(list)
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                record = json.loads(line)
                if not record.get("trace"):
                    runs[record["workload"]].append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound, extra_failures):
    """Judges one metric on one workload; `parent` and `change` are the
    paired values in run order. Returns (verdict, row details)."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    # End-to-end metrics are never 0 (BENCHMARK.json's contract).
    spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med)
    worse = -sign * (c_med - p_med) / p_med
    detail = {"pairs": len(pairs), "wins": wins, "parent_median": p_med,
              "parent_q": (p_q1, p_q3), "change_median": c_med,
              "change_q": (c_q1, c_q3), "spread": spread, "worse": worse}
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (c_med - p_med) > p_q3 - p_q1
            and not extra_failures):
        return "gain", detail
    if spread > bound:
        all_better = all(sign * (c - p) > 0 for c in change for p in parent)
        return ("better" if all_better else "unresolved"), detail
    if worse > bound:
        return "regression", detail
    return "ok", detail


def compare(parent_runs, change_runs, spec):
    """Rows of (workload, metric, verdict, detail) for every workload both
    sides ran."""
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        n = min(len(parent), len(change))
        if n == 0:
            continue
        parent, change = parent[:n], change[:n]
        extra_failures = (sum(r["failed"] for r in change) >
                          sum(r["failed"] for r in parent))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            rows.append((workload, name) + verdict(
                [r["metrics"][name]["value"] for r in parent],
                [r["metrics"][name]["value"] for r in change],
                metric["better"], metric["bound"], extra_failures))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--spec", default=os.path.join(ROOT,
                                                       "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.spec, encoding="utf-8") as f:
        spec = json.load(f)
    rows = compare(load_runs(args.parent), load_runs(args.change), spec)
    print("%-20s %-12s %5s %22s %22s %8s %7s  %s"
          % ("workload", "metric", "wins", "parent med [q1,q3]",
             "change med [q1,q3]", "change", "spread", "verdict"))
    for workload, metric, result, d in rows:
        print("%-20s %-12s %2d/%-2d %9.4g [%.4g,%.4g] %9.4g [%.4g,%.4g] "
              "%+7.1f%% %6.1f%%  %s"
              % (workload, metric, d["wins"], d["pairs"],
                 d["parent_median"], d["parent_q"][0], d["parent_q"][1],
                 d["change_median"], d["change_q"][0], d["change_q"][1],
                 100 * (d["change_median"] / d["parent_median"] - 1),
                 100 * d["spread"], result))
    return 1 if any(r[2] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
