#!/usr/bin/env python3
"""Runs the benchmark several times and appends each run to a result set.

    python3 davix_bench/collect.py --out set.jsonl [--runs 5] [--seed 1]
        [--seeds 1-10] [--workloads a,b] [--trace] [--seconds 15]
        [--paired-root OTHER_CHECKOUT --paired-out other.jsonl]

A result set is JSON Lines, one run per line:
    {"workload": ..., "seed": ..., "trace": 0|1, "result": <run.py output>}
With --seeds every seed of the range runs once; otherwise --runs runs of
--seed. Workloads are interleaved run by run, so drift in the machine's
load spreads over all of them. With --paired-root every run is repeated in
a second checkout (say, the parent commit) right before or after this one,
alternating which goes first: the way to collect the pairs a claim needs,
since two sets run one after the other can differ by the host's drift
alone. compare.py reads two result sets.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(root, workload, seed, seconds, trace, out):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "davix_bench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("%s: %s seed %d: run failed (exit %d)"
              % (root, workload, seed, proc.returncode), file=sys.stderr)
        return False
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "result": json.loads(lines[-1])}
    with open(out, "a") as f:
        f.write(json.dumps(record) + "\n")
    print("%s: %s seed %d: correct=%s"
          % (root, workload, seed, record["result"]["correct"]))
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--paired-root")
    parser.add_argument("--paired-out")
    args = parser.parse_args()
    if bool(args.paired_root) != bool(args.paired_out):
        parser.error("--paired-root and --paired-out go together")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    if args.seeds:
        first, last = (int(s) for s in args.seeds.split("-"))
        seeds = list(range(first, last + 1))
    else:
        seeds = [args.seed] * args.runs

    sides = [(ROOT, args.out)]
    if args.paired_root:
        sides.append((os.path.abspath(args.paired_root), args.paired_out))
    ok = True
    for i, seed in enumerate(seeds):
        for workload in workloads:
            order = sides if i % 2 == 0 else sides[::-1]
            for root, out in order:
                ok = run_once(root, workload, seed, seconds, args.trace,
                              out) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
