#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload pin_churn --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (the repository's libraries plus the
benchmark) into .bench_build/perfbench, runs the benchmark's own arithmetic
tests, then runs the workload. Build and test output goes to stderr; the
benchmark's report goes to stdout, ending with one JSON line. Traced runs
(--trace 1) also write .bench_build/out/trace-<workload>-seed<seed>.json.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("pin_churn", "jni_scan", "server_gc")
# One run must finish within 180 s; the timed calls take about --seconds
# (twice that when traced) plus a few seconds of set-up.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def non_negative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must not be negative")
    return value


def parse_args():
    parser = argparse.ArgumentParser(
        description="Run one perfbench workload.", allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=non_negative_int, default=1)
    parser.add_argument("--seconds", type=positive_int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def run_quiet(command, what):
    """Runs a build step with its output on stderr; exits on failure."""
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"{what} failed (exit {result.returncode})")


def git_sha(root):
    try:
        result = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = result.stdout.strip()
    return sha if result.returncode == 0 and sha else "unknown"


def source_digest(root):
    """SHA-256 over the sources the benchmark builds, for checkouts that
    are not git repositories."""
    digest = hashlib.sha256()
    for top in ("include", "src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    args = parse_args()
    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    for needed in ("src/CMakeLists.txt", "include/mte4jni"):
        if not (root / needed).exists():
            fail(f"{root / needed} is missing: run.py must sit in perfbench/ "
                 "inside the mte4jni source tree")

    build = root / ".bench_build" / "perfbench"
    out = root / ".bench_build" / "out"
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (build / "CMakeCache.txt").exists():
        run_quiet(["cmake", "-S", str(bench_dir), "-B", str(build),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], "configure")
    run_quiet(["cmake", "--build", str(build), "-j", jobs], "build")
    run_quiet([str(build / "perfbench_test"), "--gtest_brief=1"],
              "benchmark self-test")

    command = [str(build / "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-sha", git_sha(root),
               "--source-digest", source_digest(root),
               "--out-dir", str(out)]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S} s")
    if result.returncode != 0:
        fail(f"the benchmark failed (exit {result.returncode})")


if __name__ == "__main__":
    main()
