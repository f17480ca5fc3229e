#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload compile|factor|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first run configures an asserts-off
Release tree of perfbench/ (which compiles the region library from src/)
under $CARGO_TARGET_DIR, or .bench_build when that is unset, and builds
it; later runs only rebuild what changed. The benchmark's notes, a
machine stamp and, last, its JSON result go to standard output; build
output goes to standard error. Exits non-zero, printing no result, when
the library sources are missing, the build fails or the run fails.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(out_dir, deadline):
    """Configures (once) and builds the benchmark; returns the binary."""
    def step(cmd):
        left = deadline - time.monotonic()
        if left <= 0:
            fail("build ran out of time")
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=left)
        except subprocess.TimeoutExpired:
            fail("build ran out of time")
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))

    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        step(["cmake", "-S", BENCH_DIR, "-B", out_dir,
              "-DCMAKE_BUILD_TYPE=Release", "-DCMAKE_CXX_FLAGS=-DNDEBUG"])
    step(["cmake", "--build", out_dir, "--target", "perfbench", "-j", "2"])
    return os.path.join(out_dir, "perfbench")


def source_digest():
    """sha256 over the library and benchmark sources, in path order."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD, when ROOT is itself a git work tree; "unknown" otherwise."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    out = done.stdout.split()
    if done.returncode != 0 or len(out) != 2 or \
            os.path.realpath(out[0]) != os.path.realpath(ROOT):
        return "unknown"
    return out[1]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["compile", "factor", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not 0 < args.seconds <= 120:
        fail("--seconds must be in (0, 120]", 2)
    if not os.path.exists(os.path.join(ROOT, "src", "region", "Region.h")):
        fail("no region library sources under " + ROOT, 2)

    start = time.monotonic()
    binary = build(build_dir(), start + 840)
    load_before = os.getloadavg()[0]
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=min(170, 3 * args.seconds + 60))
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % done.returncode)
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail("malformed result line")

    stamp = {}
    for line in lines[:-1]:
        if line.startswith("stamp "):
            stamp = json.loads(line[len("stamp "):])
        else:
            print(line)
    stamp.update({
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg()[0],
    })
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(lines[-1])
    sys.stdout.flush()


if __name__ == "__main__":
    main()
