#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs it.

Run from the repository root:

    python3 simbench/run.py --workload fig_churn --seed 1 --seconds 10 --trace 0
    python3 simbench/run.py --selftest     # the benchmark's own tests
    python3 simbench/run.py --pin          # rewrites simbench/outcomes.tsv

The build goes to .bench_build/simbench (Release). A benchmark run prints
the report of the simbench binary; its last line is one JSON object with
the keys correct, attempted, failed and metrics. See simbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "simbench")
OUTCOMES = os.path.join(HERE, "outcomes.tsv")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"simbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under src/; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "2"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD, "simbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.pin:
        sys.exit(subprocess.run([binary, "--pin", OUTCOMES], cwd=ROOT).returncode)
    if args.selftest:
        sys.exit(subprocess.run([binary, "--selftest", "--outcomes", OUTCOMES],
                                cwd=ROOT).returncode)
    if args.workload is None:
        fail("--workload is required")
    if args.seed < 0:
        fail("--seed takes a whole number")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--outcomes", OUTCOMES]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark printed no result line")


if __name__ == "__main__":
    main()
