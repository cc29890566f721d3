#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark at a tiny suite size.

Run from the repository root:

    python3 e2e_bench/smoke_test.py

Builds the benchmark through e2e_bench/run.py, then runs every workload
untraced and traced for one second on a 300-example library with 40
examples per test split. Each run must exit 0 (so its correctness gate
passed) and end with a result line that reports `correct: true` and
exactly the metrics BENCHMARK.json names for that mode, each with the
unit named there, with no failed operation. Exits non-zero if any run
fails.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--train-size", "300", "--test-size", "40", "--seconds", "1"]


def check_run(workload, trace, expected):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", "7", "--trace", str(trace)] + TINY
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    where = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        return "%s: exit %d\n%s" % (where, proc.returncode, proc.stderr[-4000:])
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return "%s: no output" % where
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "%s: result keys %s" % (where, sorted(result))
    if result["correct"] is not True:
        return "%s: correct is %r" % (where, result["correct"])
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "%s: attempted %r" % (where, result["attempted"])
    if result["failed"] != 0:
        return "%s: failed %r" % (where, result["failed"])
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != expected:
        missing = sorted(set(expected) - set(emitted))
        extra = sorted(set(emitted) - set(expected))
        units = sorted(n for n in expected
                       if n in emitted and emitted[n] != expected[n])
        return "%s: missing %s, unexpected %s, wrong unit %s" % (
            where, missing, extra, units)
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            return "%s: %s = %r" % (where, name, m["value"])
    print("ok   %s: %d attempted, %d metrics" % (
        where, result["attempted"], len(emitted)), flush=True)
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    modes = {0: bench["end_to_end"], 1: bench["per_layer"]}
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, metrics in modes.items():
            expected = {m["name"]: m["unit"] for m in metrics}
            problem = check_run(workload, trace, expected)
            if problem is not None:
                print("FAIL " + problem, flush=True)
                failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
