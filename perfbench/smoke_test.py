#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny scale.

    python3 perfbench/smoke_test.py      (from the repository root)

Asserts that every metric BENCHMARK.json names prints with its unit (and
the workload-specific end-to-end figures on the '#' lines), that no
operation fails (failed_frac = 0), and that two traced runs with the same
seed give identical counters.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# Per-layer metrics that are counts, not times: they must repeat exactly.
COUNTER_UNITS = {"rows/op", "rows/commit", "entries/commit", "count",
                 "fraction", "ops/plan"}
# Printed on the '#' lines of every untraced run ('n/a' where a figure
# does not apply to the workload).
PRINTED = ["commit_p50_ms", "commit_p99_ms", "qplus_overhead",
           "qmaybe_overhead", "failed_frac", "result_cache.hit_ratio"]


def run(workload, trace, seed=7):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        universal_newlines=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines[:-1], json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def check_result(self, rc, result, specs):
        self.assertEqual(rc, 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for m in specs:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_untraced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, notes, result = run(w, 0)
                self.check_result(rc, result, BENCH["end_to_end"])
                for m in BENCH["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0)
                text = "\n".join(notes)
                for name in PRINTED:
                    self.assertRegex(text, r"# %s +\S+ \S+" % re.escape(name))
                self.assertRegex(text, r"# failed_frac +0 fraction")

    def test_traced_counters_repeat(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, _, first = run(w, 1)
                self.check_result(rc, first, BENCH["per_layer"])
                rc, _, second = run(w, 1)
                self.check_result(rc, second, BENCH["per_layer"])
                for m in BENCH["per_layer"]:
                    if m["unit"] in COUNTER_UNITS:
                        self.assertEqual(first["metrics"][m["name"]],
                                         second["metrics"][m["name"]],
                                         m["name"])


if __name__ == "__main__":
    unittest.main()
