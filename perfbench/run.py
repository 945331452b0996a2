#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload bitmap-cpu --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. The first call builds the load
generator and the fbcd/fbcgrid daemons from source into .bench_build/
(CMake, Release); later calls only re-check the build. The run itself is
perfbench_loadgen, whose standard output is passed through: a readable
report, then one JSON result line. Build output goes to standard error.

Exit codes: 0 on a correct run, 1 when the correctness gate failed, 2 on a
usage, build or start-up error (no result line is printed then).
"""

import argparse
import fcntl
import os
import subprocess
import sys

WORKLOADS = ("bitmap-cpu", "henp-staged", "henp-fleet")
# The workload seed used when none is given, and the seed held out for
# confirming a claimed gain on inputs it was not tuned on (README.md).
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark; build logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no fbcache sources under {ROOT}/src; run from a source checkout")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", "4"])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    binary = os.path.join(BUILD, "bin", "perfbench_loadgen")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--fbcgrid", os.path.join(BUILD, "bin", "fbcgrid"),
               "--out-dir", OUT]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S}s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
