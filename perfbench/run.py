#!/usr/bin/env python3
"""Builds and runs the TimeKD end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fit-gpt --seed 1 --seconds 25 --trace 0

The first call configures and compiles the library and the benchmark into
.bench_build/ (a few minutes); later calls only rebuild what changed. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. With --trace 1 the Chrome trace is written under .bench_build/.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "timekd_perfbench")
# A run measures for --seconds, plus set-up and training; stop a hung one
# well inside the three minutes a run is allowed.
RUN_TIMEOUT_S = 170


def build():
    """Configures (first time) and builds the benchmark; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "timekd.h")):
        print("perfbench: no TimeKD sources under %s/src" % ROOT,
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "timekd_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return False
    return os.path.isfile(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            BUILD, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
