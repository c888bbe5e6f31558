#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout and runs one workload.

Usage (from the root of the checkout):

    python3 perfbench/run.py --workload megabase --seed 1 --seconds 20 --trace 0

The binary is configured and built (Release) under .bench_build/perfbench
the first time, and brought up to date on every later call. Build output
goes to .bench_build/perfbench.log and, on failure, to stderr. The last
line of standard output is the benchmark's JSON result; the exit code is
the binary's.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
LOG = os.path.join(BUILD_ROOT, "perfbench.log")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    with open(LOG, "a") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(LOG) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--tiny", action="store_true",
                        help="self-check size (see selfcheck.py)")
    args = parser.parse_args()
    if not build():
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--workdir", os.path.join(BUILD_ROOT, "work")]
    if args.tiny:
        command.append("--tiny")
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
