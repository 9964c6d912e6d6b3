#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload tpcc-closed --seed 1 --seconds 20 --trace 0

Configures and builds perfbench/ (which compiles the library from the
checkout's sources) into .bench_build/perfbench, then runs the benchmark
binary with the given arguments and passes its output through. The last line
of standard output is the benchmark's JSON result. Exits with the
benchmark's code; nonzero without a result if the build fails.

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own tests instead.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def step(cmd, timeout):
    """Runs a build step with its output on stderr; returns its exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: timed out: " + " ".join(cmd), file=sys.stderr)
        return 1


def build(target):
    if not os.path.isfile(os.path.join(SRC, "CMakeLists.txt")):
        print("perfbench: run from the checkout root", file=sys.stderr)
        return 1
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        code = step(["cmake", "-S", SRC, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"], 300)
        if code != 0:
            return code
    return step(["cmake", "--build", BUILD, "--target", target, "-j", JOBS],
                840)


def run(cmd, timeout):
    """Runs the built binary with its output passed through. run() returns
    only after the child has exited; on timeout it kills and reaps it."""
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: timed out: " + " ".join(cmd), file=sys.stderr)
        return 1


def main(argv):
    if argv == ["--selftest"]:
        code = build("perfbench_test")
        return code if code != 0 else run(
            [os.path.join(BUILD, "perfbench_test")], 600)
    code = build("perfbench")
    return code if code != 0 else run(
        [os.path.join(BUILD, "perfbench")] + argv, 170)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
