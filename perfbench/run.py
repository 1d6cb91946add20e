#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload adhoc_sql|certain_approx|serve_update
                             --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root. The benchmark binary (perfbench/main.cpp)
and the incdb library are built in Release under $CARGO_TARGET_DIR (default
.bench_build), configured and brought up to date on every run;
build output goes to stderr. The binary's standard output is passed
through: '#' lines for people, and one JSON object as the last line. With
--trace 1 the spans are also written to <build dir>/spans/.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("adhoc_sql", "certain_approx", "serve_update")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds the binary; returns its path or None."""
    cmake_dir = os.path.join(build_dir, "perfbench")
    rc = subprocess.call(
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", cmake_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, stderr=sys.stderr)
    if rc != 0:
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    rc = subprocess.call(
        ["cmake", "--build", cmake_dir, "--target", "perfbench",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if rc != 0:
        return None
    return os.path.join(cmake_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny data, for the benchmark's own tests")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not os.path.exists(os.path.join(ROOT, "src", "api", "session.h")):
        print("perfbench: no incdb sources next to perfbench/ "
              "(run from a full checkout)", file=sys.stderr)
        return 2
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.tsv" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark binary timed out", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
