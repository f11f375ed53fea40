#!/usr/bin/env python3
"""pmg-bench: build the benchmark from this checkout and run its workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload batch-pr-pmm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --test

The first form configures and builds perfbench/ (a CMake project that
compiles the pmg libraries from src/) into .bench_build/, then runs
pmg_bench with the given arguments. Build output goes to stderr; the last
line of stdout is the benchmark's JSON result. The exit status is the
benchmark's: 0 only when every correctness check passed. Without
--workload, every workload of BENCHMARK.json runs in turn, and the exit
status is nonzero if any run failed. `--test` builds and runs the
benchmark's own tests instead.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
# A run must end within 180 s; leave headroom for the build check.
RUN_TIMEOUT_S = 170
TEST_TIMEOUT_S = 600


def build(targets):
    """Configures (once) and builds `targets`; False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", *targets,
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, check=False)
        except OSError as err:
            print(f"run.py: cannot run {cmd[0]}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def run(cmd, timeout_s):
    """Runs `cmd` from the checkout root; returns its exit status."""
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=timeout_s,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {cmd[0]} exceeded {timeout_s} s", file=sys.stderr)
        return 124


def main(argv):
    if argv == ["--test"]:
        if not build(["pmg_bench_test"]):
            return 1
        return run([os.path.join(BUILD, "pmg_bench_test")], TEST_TIMEOUT_S)
    if not build(["pmg_bench"]):
        return 1
    binary = os.path.join(BUILD, "pmg_bench")
    if "--workload" in argv:
        return run([binary, *argv], RUN_TIMEOUT_S)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    status = 0
    for name in names:
        status = run([binary, "--workload", name, *argv], RUN_TIMEOUT_S) or status
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
