#!/usr/bin/env python3
"""nwbench: the simulator's host-speed benchmark (see README.md).

    python3 nwbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the harness and the simulator libraries from this checkout's
sources (Release, into .bench_build/nwbench) on first use, runs one
workload, and prints the harness report. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; its metric names and units are checked against BENCHMARK.json
before it is printed.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "nwbench")
WORK = os.path.join(ROOT, ".bench_build", "nwbench-work")
HARNESS = os.path.join(BUILD, "nwbench")
WORKLOADS = ("deepff-sampled", "sweep1000-fork")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("nwbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then bring the harness up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to nwbench/", 2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4",
                  "--target", "nwbench"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        left = deadline - time.monotonic()
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd), 2)


def expected_metrics(trace):
    """{name: unit} that a run in this mode must report."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, expected):
    """Problems with a harness result line ([] when it is well formed)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("keys are %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    got = result["metrics"]
    for name in sorted(set(got) - set(expected)):
        problems.append("metric %s is not in BENCHMARK.json" % name)
    for name in sorted(set(expected) - set(got)):
        problems.append("metric %s is missing" % name)
    for name in sorted(set(got) & set(expected)):
        if got[name].get("unit") != expected[name]:
            problems.append("metric %s has unit %s, BENCHMARK.json says %s"
                            % (name, got[name].get("unit"), expected[name]))
    return problems


def run_harness(args, timeout=RUN_TIMEOUT_S):
    """Run the harness; returns (report lines, result line, parsed)."""
    os.makedirs(WORK, exist_ok=True)
    cmd = [HARNESS, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", WORK]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("harness timed out after %d s" % timeout)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail("harness exited with code %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("harness printed no result line")
    return lines[:-1], lines[-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    report, line, result = run_harness(args)
    problems = validate(result, expected_metrics(args.trace))
    if problems:
        sys.stdout.write("\n".join(report) + "\n")
        fail("bad result: " + "; ".join(problems))
    print("\n".join(report))
    print(line)


if __name__ == "__main__":
    main()
