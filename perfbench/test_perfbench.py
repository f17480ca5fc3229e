#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the benchmark the way run.py does, then checks that a seed fixes
the inputs of every workload and the deterministic counters of compile
and factor, whatever the run length; that every metric is declared in
BENCHMARK.json under a well-formed name and unit; that a short run of
each workload passes its output checks; that a serve run too short to
measure prints no result; and that run.py refuses to run without the
library sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
BINARY = None


def binary():
    global BINARY
    if BINARY is None:
        BINARY = run.build(run.build_dir(), time.monotonic() + 900)
    return BINARY


def stamped(workload, seed, seconds, trace):
    """Runs the binary; returns its stamp and its result."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace)]
    done = subprocess.run([binary(), *args], cwd=run.ROOT,
                          capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise AssertionError("perfbench %s failed (%d): %s" %
                             (" ".join(args), done.returncode, done.stderr))
    lines = done.stdout.splitlines()
    stamp = json.loads(lines[-2][len("stamp "):])
    return stamp, json.loads(lines[-1])


def measure(workload, seed, seconds, trace):
    return stamped(workload, seed, seconds, trace)[1]


class SpecTest(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        names = [w["name"] for w in SPEC["workloads"]]
        for group in ("end_to_end", "per_layer"):
            for m in SPEC[group]:
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))


class DeterminismTest(unittest.TestCase):
    COUNTS = ("alloc.raw_calls", "alloc.scanned_calls", "alloc.bytes",
              "lifecycle.new_calls", "lifecycle.delete_calls",
              "barrier.stores", "barrier.adjustments", "cleanup.thunks",
              "stack.scans", "stack.frames_scanned")

    def test_seed_fixes_inputs(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                def digest(seed):
                    return stamped(w["name"], seed, 0.5, 0)[0]["inputs"]
                first = digest(7)
                self.assertEqual(first, digest(7))
                self.assertNotEqual(first, digest(8))

    def test_seed_fixes_counters_whatever_the_run_length(self):
        for workload in ("compile", "factor"):
            with self.subTest(workload=workload):
                short = measure(workload, 3, 0.5, 1)
                long = measure(workload, 3, 1.5, 1)
                self.assertEqual(short["failed"], 0)
                for name in self.COUNTS:
                    self.assertEqual(short["metrics"][name]["value"],
                                     long["metrics"][name]["value"], name)
                short = measure(workload, 3, 0.5, 0)["metrics"]
                long = measure(workload, 3, 1.5, 0)["metrics"]
                self.assertEqual(short["peak_os_kb"]["value"],
                                 long["peak_os_kb"]["value"])


class SmokeTest(unittest.TestCase):
    def test_every_workload_passes_its_checks(self):
        for w in SPEC["workloads"]:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    result = measure(w["name"], 1, 1, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    declared = {m["name"]: m["unit"] for m in SPEC[group]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, declared)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_serve_too_short_to_measure_prints_no_result(self):
        done = subprocess.run(
            [binary(), "--workload", "serve", "--seed", "1", "--seconds",
             "0.000001", "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


class RunScriptTest(unittest.TestCase):
    def test_refuses_without_library_sources(self):
        scratch = os.path.join(os.path.dirname(run.build_dir()), "bare")
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            shutil.copytree(run.BENCH_DIR, os.path.join(scratch, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), scratch)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "compile",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=scratch, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout, "")
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
