#!/usr/bin/env python3
"""Builds davix_bench from the sources of this checkout and runs one workload.

    python3 davix_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
layer libraries and the benchmark into .bench_build/ (about a minute on four
cores); later calls only check that the build is current. --trace 0 reports
the end-to-end metrics of BENCHMARK.json, --trace 1 runs the traced variant
and reports its per-layer metrics (the Chrome trace lands in .bench_build/).

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Exits non-zero without printing it when the sources are missing, the build
fails, or the workload process dies or runs over time.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "davix_bench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then brings the binary up to date (a no-op when
    nothing changed). A lock keeps concurrent runs from building at once."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the repository sources (CMakeLists.txt, src/) are not in "
             + ROOT)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", "4",
                      "--target", "davix_bench"])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                fail("build step failed: " + " ".join(step))


def run_workload(args, result_path, trace_path):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--json", result_path]
    if trace_path:
        cmd += ["--trace", trace_path]
    # Own process group: on timeout the workload's child process goes too.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        # Give the rest of the group (the workload's child) time to go.
        for _ in range(100):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        fail("workload ran over %d s" % RUN_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    tag = "%s-%d" % (args.workload, args.seed)
    result_path = os.path.join(BUILD,
                               "result-%s-%d.json" % (tag, os.getpid()))
    trace_path = (os.path.join(BUILD, "trace-%s.json" % tag)
                  if args.trace else "")
    code = run_workload(args, result_path, trace_path)
    # 0 = correct, 1 = wrong output (still reported); anything else died.
    if code not in (0, 1) or not os.path.isfile(result_path):
        fail("workload process failed with exit code %d" % code)
    with open(result_path) as f:
        report = json.load(f)["workloads"][args.workload]
    os.remove(result_path)

    measured = dict(report["end_to_end"])
    measured.update(report.get("per_layer", {}))
    metrics = {}
    for metric in wanted:
        if metric["name"] not in measured:
            fail("the benchmark did not report " + metric["name"])
        metrics[metric["name"]] = {"value": measured[metric["name"]]["value"],
                                   "unit": metric["unit"]}
    print(json.dumps({"correct": bool(report["correct"]) and code == 0,
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
