#!/usr/bin/env python3
"""Builds and runs the mcpta benchmark.

Run from the repository root:

    python3 mcptabench/run.py --workload deep-contexts --seed 1 \
        --seconds 20 --trace 0

Workloads: deep-contexts, paper-corpus, serve-session. The benchmark is
built from source into .bench_build/mcptabench (cmake, first run only),
then the binary runs the workload and prints every metric; the last line
of standard output is the JSON result. --trace 1 runs the traced mode and
writes a Chrome trace to .bench_build/trace-<workload>-<seed>.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "mcptabench")
BINARY = os.path.join(BUILD, "mcptabench")
WORKLOADS = ("deep-contexts", "paper-corpus", "serve-session")


def build():
    """Configures (once) and builds the benchmark; build output goes to
    standard error so standard output stays the benchmark's."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "mcptabench",
                  "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            print("error: benchmark build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--golden", os.path.join(HERE, "golden")]
    if args.trace == "1":
        cmd += ["--trace-json", os.path.join(
            ROOT, ".bench_build",
            "trace-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
