#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload fleet-burst --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and its output to stderr, so the benchmark's JSON result stays the last line
of stdout. Exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("fleet-burst", "fleet-outage", "sweep-grid", "spec-check")
BUILD_TIMEOUT_S = 850


def run_timeout(seconds):
    """Wall-clock limit of one run: the measured loop plus the fixed calls
    around it (warm-up, set-up samples, and in a traced run the 1- and
    4-worker calls, the composition and the observe-only sample)."""
    return 2 * seconds + 120


def run(cmd, timeout):
    """Runs cmd to completion (killing it on timeout); returns its exit code."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 1


def configured_for(build_dir, source_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        return False
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return os.path.realpath(line.split("=", 1)[1].strip()) == source_dir
    return False


def build(build_dir):
    source_dir = os.path.realpath("perfbench")
    if not configured_for(build_dir, source_dir):
        shutil.rmtree(build_dir, ignore_errors=True)
        code = run(["cmake", "-S", "perfbench", "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
        if code != 0:
            return code
    return run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"],
               BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")

    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    code = build(build_dir)
    if code != 0:
        print(f"perfbench: build failed (exit {code})", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--trace-dir", os.path.join(os.path.dirname(build_dir), "perfbench-trace")]
    timeout = run_timeout(args.seconds)
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run timed out after {timeout}s", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
