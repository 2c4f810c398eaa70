#!/usr/bin/env python3
"""Build and run the stack benchmark.

    python3 bench_stack/run.py --workload casper|sor|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a pax source tree. Builds bench_stack (and the pax_core
library it links) with CMake into $CARGO_TARGET_DIR/bench_stack (default
.bench_build/bench_stack), runs the benchmark's unit tests, then runs one
workload. Build and test output go to stderr; stdout carries the
benchmark's meta line and, last, its result line (one JSON object). Exits
non-zero, without a result line, when the build, the unit tests or the
result line's shape fail, and with the benchmark's own code otherwise.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"bench_stack: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "bench_stack")


def call(cmd, timeout):
    """Run `cmd` with its stdout sent to our stderr; fail on a non-zero exit."""
    try:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if res.returncode != 0:
        fail(f"failed ({res.returncode}): {' '.join(cmd)}")


def build(bdir):
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        call(cmd, 300)
    call(["cmake", "--build", bdir, "-j", "4", "--target", "stack_bench",
          "stack_bench_test"], 840)


def metric_names(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"] for m in json.load(f)[key]}


def check_result(line, trace):
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(res)}"
    want = metric_names("per_layer" if trace else "end_to_end")
    if set(res["metrics"]) != want:
        return f"metric names differ: {sorted(set(res['metrics']) ^ want)}"
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["casper", "sor", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no pax source tree around bench_stack (CMakeLists.txt missing)")
    bdir = build_dir()
    build(bdir)
    call([os.path.join(bdir, "stack_bench_test"), "--gtest_brief=1"], 120)

    cmd = [os.path.join(bdir, "stack_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    lines = res.stdout.strip().splitlines()
    problem = check_result(lines[-1], args.trace) if lines else "no output"
    if problem:
        sys.stderr.write(res.stdout)
        fail(problem)
    sys.stdout.write(res.stdout)
    sys.stdout.flush()
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
