#!/usr/bin/env python3
"""Exact count check of bench smoke runs against committed baselines.

A bench's JSON document ({"bench": ..., "rows": [...]}, written by
`--json`) carries timings (JSON floats) and counts (JSON integers):
requests, round trips, bytes, cache hits. Timings are noisy; the counts
of a deterministic smoke run are not, so a change in one is a change in
what the library puts on the wire. This script compares them exactly.

A baseline is a bench document cut down to its rows' string columns
(the row's identity) and the integer columns that repeat run after run.
Every baseline column must be present in the fresh row with the same
value; fresh columns the baseline lacks (timings, new counters) are not
compared. Rows are matched by position, so the row count must agree.

Usage:
  bench_compare.py BASELINE_DIR RESULTS_DIR
      Compares every BASELINE_DIR/<name>.json with RESULTS_DIR/<name>.json.
  bench_compare.py --update BASELINE_DIR RESULTS_DIR
      Rewrites the baselines in BASELINE_DIR from RESULTS_DIR, keeping
      each row's string and integer columns minus TIMING_DEPENDENT. To
      add a baseline, copy the smoke's JSON into BASELINE_DIR and run
      --update with BASELINE_DIR as RESULTS_DIR too.

Exit status 0 = every count matches, 1 = a difference (listed on stderr),
2 = usage error or a missing/unreadable document.
"""

import json
import pathlib
import sys

# Integer columns that depend on timing and so are never baselined,
# even when they happen to repeat on one machine: the Figure-4 tree
# cache's prefetch window refills on a 200 ms latency latch, and replica
# quarantines depend on which failures land inside a health window.
TIMING_DEPENDENT = {
    "BENCH_fig4_analysis.json": {
        "async_prefetches", "bytes_prefetched_early", "prefetch_discards"},
    "BENCH_failover.json": {"quarantines"},
}


def load(path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)


def is_count(value):
    return isinstance(value, int) and not isinstance(value, bool)


def baseline_of(doc, name):
    skip = TIMING_DEPENDENT.get(name, set())
    rows = [{key: value for key, value in row.items()
             if key not in skip and (isinstance(value, str) or is_count(value))}
            for row in doc["rows"]]
    return {"bench": doc["bench"], "rows": rows}


def dump(doc):
    """One row per line, like the benches' own documents."""
    rows = ",\n".join("  " + json.dumps(row) for row in doc["rows"])
    return '{"bench": %s, "rows": [\n%s\n]}\n' % (json.dumps(doc["bench"]),
                                                 rows)


def compare(name, baseline, fresh):
    problems = []
    if len(baseline["rows"]) != len(fresh["rows"]):
        return [f"{name}: {len(fresh['rows'])} rows, baseline has "
                f"{len(baseline['rows'])}"]
    for index, (want, got) in enumerate(zip(baseline["rows"], fresh["rows"])):
        for key, value in want.items():
            if key not in got:
                problems.append(f"{name} row {index}: column {key!r} missing")
            elif got[key] != value:
                problems.append(f"{name} row {index}: {key} = {got[key]!r}, "
                                f"baseline {value!r}")
    return problems


def main(argv):
    update = "--update" in argv
    args = [arg for arg in argv if arg != "--update"]
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    baseline_dir, results_dir = map(pathlib.Path, args)
    baselines = sorted(baseline_dir.glob("*.json"))
    if not baselines:
        print(f"error: no baselines in {baseline_dir}", file=sys.stderr)
        return 2
    problems = []
    for path in baselines:
        fresh_path = results_dir / path.name
        if not fresh_path.is_file():
            print(f"error: {fresh_path} missing", file=sys.stderr)
            return 2
        fresh = load(fresh_path)
        if update:
            path.write_text(dump(baseline_of(fresh, path.name)),
                            encoding="utf-8")
            continue
        problems += compare(path.name, load(path), fresh)
    for problem in problems:
        print(problem, file=sys.stderr)
    if not update:
        print(f"{len(baselines)} baselines, {len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
