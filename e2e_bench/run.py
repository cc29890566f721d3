#!/usr/bin/env python3
"""Builds and runs the end-to-end serving benchmark.

Run from the repository root:

    python3 e2e_bench/run.py --workload nlq_closed --seed 1 --seconds 10 --trace 0

Configures e2e_bench/ as a standalone CMake package (Release) under
$CARGO_TARGET_DIR (default .bench_build), builds the `e2e_bench` binary
from the repository sources, then runs it with the given arguments.
Build output goes to stderr; the binary's stdout is passed through, so
its last line is the JSON result. Exits non-zero if the sources are
missing, the build fails or the benchmark's correctness gate trips.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2e_bench")


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("e2e_bench: no gredvis sources next to e2e_bench/", file=sys.stderr)
        return None
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(len(os.sched_getaffinity(0)))
    step = ["cmake", "--build", out, "--target", "e2e_bench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "e2e_bench")


def main():
    binary = build()
    if binary is None:
        return 2
    try:
        return subprocess.run([binary] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("e2e_bench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
