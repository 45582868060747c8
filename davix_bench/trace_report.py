#!/usr/bin/env python3
"""Per-layer self-time table and per-layer metrics of traced runs.

    python3 davix_bench/trace_report.py TRACE.json [TRACE.json ...]
        [--untraced RESULT_SET.jsonl]

Each TRACE.json is the Chrome trace-event file a traced run writes
(davix_bench --trace, or run.py --trace 1 into .bench_build/). A span's
self time is its duration minus the part of it that its child spans cover;
a layer's self time is the sum over its spans ("core.read" belongs to the
core layer). The per-layer metrics the run computed are printed after the
table. With --untraced, the traced run's end-to-end medians are set beside
the untraced medians of a result set (collect.py), which shows what the
tracing itself cost.

Exits 1 when root.residual_share, the share of an analysis job that
neither the time blocked in I/O nor the same job on a local file explains,
is 10 % or more on analysis_wan or analysis_lan_mux.
"""

import argparse
import json
import statistics
import sys

RESIDUAL_LIMIT = 0.10
ANALYSIS_WORKLOADS = ("analysis_wan", "analysis_lan_mux")


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, end = 0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(events):
    """{name: [count, self_us]} for the spans in `events`."""
    spans = {e["args"]["id"]: e for e in events if e.get("ph") == "X"}
    children = {}
    for e in spans.values():
        parent = e["args"]["parent"]
        if parent in spans:
            children.setdefault(parent, []).append(
                (e["ts"], e["ts"] + e["dur"]))
    table = {}
    for span_id, e in spans.items():
        inner = [(max(lo, e["ts"]), min(hi, e["ts"] + e["dur"]))
                 for lo, hi in children.get(span_id, [])]
        inner = [(lo, hi) for lo, hi in inner if hi > lo]
        row = table.setdefault(e["name"], [0, 0])
        row[0] += 1
        row[1] += e["dur"] - covered(inner)
    return table


def untraced_medians(path):
    values = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            run = json.loads(line)
            if run["trace"]:
                continue
            for name, metric in run["result"]["metrics"].items():
                values.setdefault((run["workload"], name), []).append(
                    metric["value"])
    return {k: statistics.median(v) for k, v in values.items()}


def report(path, untraced):
    with open(path) as f:
        trace = json.load(f)
    other = trace["otherData"]
    workload = other["workload"]
    print("== %s  seed %s  (%s" % (workload, other["seed"], path), end="")
    if other["spans_seen"] > other["spans_kept"]:
        print("; table covers the first %d of %d spans"
              % (other["spans_kept"], other["spans_seen"]), end="")
    print(")")

    table = self_times(trace["traceEvents"])
    layers = {}
    for name, (count, self_us) in table.items():
        row = layers.setdefault(name.split(".")[0], [0, 0])
        row[0] += count
        row[1] += self_us
    total = sum(self_us for _, self_us in layers.values()) or 1
    print("  %-10s %9s %12s %7s" % ("layer", "spans", "self [s]", "share"))
    for layer, (count, self_us) in sorted(layers.items(),
                                          key=lambda kv: -kv[1][1]):
        print("  %-10s %9d %12.3f %6.1f%%"
              % (layer, count, self_us / 1e6, 100.0 * self_us / total))
    print("  %-24s %9s %12s" % ("span", "count", "self [s]"))
    for name, (count, self_us) in sorted(table.items(),
                                         key=lambda kv: -kv[1][1]):
        print("  %-24s %9d %12.3f" % (name, count, self_us / 1e6))

    print("  per-layer metrics:")
    for name, metric in other["per_layer"].items():
        print("    %-36s %14.6g %s" % (name, metric["value"], metric["unit"]))
    if untraced:
        print("  traced run vs untraced median:")
        for name, metric in other["end_to_end"].items():
            base = untraced.get((workload, name))
            if base:
                print("    %-16s %12.6g vs %12.6g  %+6.1f%%"
                      % (name, metric["value"], base,
                         100.0 * (metric["value"] - base) / base))

    residual = other["per_layer"]["root.residual_share"]["value"]
    if workload in ANALYSIS_WORKLOADS and residual >= RESIDUAL_LIMIT:
        print("  FAIL: root.residual_share %.3f >= %.2f: the layers do not "
              "account for the job's time" % (residual, RESIDUAL_LIMIT))
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("traces", nargs="+")
    parser.add_argument("--untraced")
    args = parser.parse_args()
    untraced = untraced_medians(args.untraced) if args.untraced else {}
    ok = True
    for path in args.traces:
        ok = report(path, untraced) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
