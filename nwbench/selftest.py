#!/usr/bin/env python3
"""Self-tests of the nwbench benchmark itself.

    python3 nwbench/selftest.py

Builds the harness if needed, then checks:
  - the harness's own units (`nwbench selftest`): tail-percentile choice
    from the sample count, the median, the stolen share
    behind run time, self-time arithmetic on a synthetic span tree,
    and that the correctness gate flags a baseline job compared against
    its packing twin;
  - that run.py's result check accepts a well-formed result and rejects
    unknown, missing and mis-unit metrics;
  - for every workload BENCHMARK.json declares, that every metric a real
    run prints, untraced and traced, appears in BENCHMARK.json;
  - that two invocations with the same seed produce identical simulated
    fingerprints, and another seed a different one.
Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

import run

SEED = 7


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def bench(workload, seed, trace):
    """One run.py invocation; returns (fingerprint, result)."""
    done = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True,
        timeout=run.RUN_TIMEOUT_S + 10)
    check(done.returncode == 0,
          "%s seed %d trace %d exits 0" % (workload, seed, trace))
    lines = done.stdout.splitlines()
    fingerprint = [l.split()[1] for l in lines if l.startswith("fingerprint:")]
    return fingerprint[0], json.loads(lines[-1])


def main():
    run.build()
    check(subprocess.run([run.HARNESS, "selftest"], cwd=run.ROOT).returncode
          == 0, "harness unit self-tests")

    expected = {"a_ms": "ms", "b": "count"}
    good = {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {"a_ms": {"value": 1.5, "unit": "ms"},
                        "b": {"value": 2, "unit": "count"}}}
    check(run.validate(good, expected) == [], "validate accepts a good result")
    extra = json.loads(json.dumps(good))
    extra["metrics"]["c"] = {"value": 1, "unit": "s"}
    check(run.validate(extra, expected) != [],
          "validate rejects a metric missing from BENCHMARK.json")
    missing = json.loads(json.dumps(good))
    del missing["metrics"]["b"]
    check(run.validate(missing, expected) != [],
          "validate rejects a result that omits a metric")
    unit = json.loads(json.dumps(good))
    unit["metrics"]["a_ms"]["unit"] = "s"
    check(run.validate(unit, expected) != [],
          "validate rejects a metric with the wrong unit")

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        fp0, untraced = bench(workload, SEED, 0)
        fp1, traced = bench(workload, SEED, 1)
        fp2, _ = bench(workload, SEED + 1, 0)
        printed = set(untraced["metrics"]) | set(traced["metrics"])
        check(printed <= declared and untraced["correct"]
              and traced["correct"],
              "%s: every printed metric is declared in BENCHMARK.json"
              % workload)
        check(fp0 == fp1,
              "%s: the same seed gives identical simulated fingerprints"
              % workload)
        check(fp0 != fp2,
              "%s: another seed gives a different fingerprint" % workload)


if __name__ == "__main__":
    main()
