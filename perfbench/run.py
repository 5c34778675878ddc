#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload audit_full --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles the repository's libraries from ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
rebuild incrementally. Build output goes to stderr. The perfbench binary writes
its full record (and, with --trace 1, its spans) under .bench_out/; the last
line printed here is the result object. Exits non-zero, without a result,
when the sources or the build are missing, and with the result when a
correctness check failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("audit_full", "serve_durable", "mine_templates")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: repository sources not found in " + ROOT,
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", os.path.join(ROOT, ".bench_out")]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(done.stdout)
        print("perfbench: no result (exit code %d)" % done.returncode,
              file=sys.stderr)
        return done.returncode or 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
