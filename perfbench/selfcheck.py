#!/usr/bin/env python3
"""Self-check of the benchmark at tiny size.

Runs every workload of BENCHMARK.json once untraced and once traced with
--tiny (small inputs, about a second each) and checks that:

  * the run exits 0 and its last output line is the result object with
    exactly the keys correct, attempted, failed and metrics;
  * every score matched the sw::linear_score oracle (correct is true,
    at least one comparison was attempted, none failed);
  * the metrics are exactly the end-to-end ones (--trace 0) or the
    per-layer ones (--trace 1) of BENCHMARK.json, each with the unit
    listed there and a finite value, and every name matches
    [A-Za-z0-9_.-]+;
  * the untraced run writes no trace and the traced run writes one.

Usage, from the root of the checkout:  python3 perfbench/selfcheck.py
"""

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
KEYS = {"correct", "attempted", "failed", "metrics"}


def check_run(workload, trace, expected):
    problems = []
    trace_file = os.path.join(ROOT, ".bench_build", "work",
                              "%s-seed1.trace.json" % workload)
    if os.path.exists(trace_file):
        os.remove(trace_file)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return ["exit code %d: %s" % (proc.returncode, proc.stderr[-2000:])]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        return ["last line is not JSON: %s" % e]
    if set(result) != KEYS:
        problems.append("result keys %s" % sorted(result))
    if result.get("correct") is not True:
        problems.append("a score differs from the oracle")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted = %r" % result.get("attempted"))
    if result.get("failed") != 0:
        problems.append("failed = %r" % result.get("failed"))
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append("metric names differ: missing %s, extra %s" % (
            sorted(set(expected) - set(metrics)),
            sorted(set(metrics) - set(expected))))
    for name, metric in metrics.items():
        if not NAME.match(name):
            problems.append("bad metric name %r" % name)
        if name in expected and metric.get("unit") != expected[name]:
            problems.append("%s unit %r, want %r" % (
                name, metric.get("unit"), expected[name]))
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s value %r is not finite" % (name, value))
    if os.path.exists(trace_file) != bool(trace):
        problems.append("trace file %s after --trace %d" % (
            "present" if trace == 0 else "missing", trace))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    groups = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for name in [w["name"] for w in spec["workloads"]] + list(groups[0]) + \
            list(groups[1]):
        if not NAME.match(name):
            print("FAIL BENCHMARK.json name %r" % name)
            failures += 1
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems = check_run(workload, trace, groups[trace])
            status = "ok" if not problems else "FAIL"
            print("%-4s %s --trace %d" % (status, workload, trace))
            for problem in problems:
                print("     " + problem)
            failures += len(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
