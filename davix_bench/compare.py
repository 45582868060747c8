#!/usr/bin/env python3
"""Compares two result sets (parent and change) metric by metric.

    python3 davix_bench/compare.py PARENT.jsonl CHANGE.jsonl
        [--bench BENCHMARK.json]

Result sets come from collect.py. For every workload and metric the table
shows each side's median and quartiles, the change of the median and a
verdict, decided in this order:

  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  better      the change wins at least 9 of 10 pairs (runs paired in order,
              ties count for neither side) and the medians differ by more
              than the parent's interquartile range
  unresolved  either side's spread (IQR / median) is wider than the bound,
              so "no change" cannot be told from noise
  same        everything else

Per-layer metrics (traced runs) have no bound; they are shown for reading
and get no verdict. Exits 1 when any verdict is "worse".
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path, trace):
    """{(workload, metric): [values in run order]} over runs of one kind."""
    values = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            run = json.loads(line)
            if run["trace"] != trace:
                continue
            for name, metric in run["result"]["metrics"].items():
                values.setdefault((run["workload"], name), []).append(
                    metric["value"])
    return values


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = 1 if better == "lower" else -1
    worse_by = sign * (cm - pm) / pm if pm else 0.0
    if worse_by > bound:
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if (pairs and wins >= 0.9 * len(pairs) and sign * (cm - pm) < 0
            and abs(cm - pm) > p3 - p1):
        return "better"
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    if spread > bound:
        return "unresolved"
    return "same"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--bench",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.bench) as f:
        spec = json.load(f)
    bounded = {m["name"]: m for m in spec["end_to_end"]}

    print("%-17s %-34s %-30s %-30s %8s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "change", "verdict"))
    any_worse = False
    for trace in (0, 1):
        parent, change = load(args.parent, trace), load(args.change, trace)
        for key in sorted(set(parent) & set(change)):
            workload, name = key
            p, c = parent[key], change[key]
            p1, pm, p3 = quartiles(p)
            c1, cm, c3 = quartiles(c)
            rel = "%+7.1f%%" % (100 * (cm - pm) / pm) if pm else "     n/a"
            if name in bounded and not trace:
                v = verdict(p, c, bounded[name]["better"],
                            bounded[name]["bound"])
            else:
                v = "-"
            any_worse = any_worse or v == "worse"
            print("%-17s %-34s %-30s %-30s %8s  %s" % (
                workload, name,
                "%.5g [%.5g, %.5g]" % (pm, p1, p3),
                "%.5g [%.5g, %.5g]" % (cm, c1, c3), rel, v))
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
