#!/usr/bin/env python3
"""Self-test of the simulator benchmark.

Runs the tiny-population smoke mode of every workload in BENCHMARK.json,
untraced and traced, through the same entry point and code path as a real
run, and checks the result line: every end-to-end (untraced) or per-layer
(traced) metric is printed once with its declared unit and a finite value,
and the correctness gate passes.

    python3 perfbench/test_perfbench.py
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        rc, result, proc = run_bench("--workload", workload, "--seed", "7",
                                     "--seconds", "1", "--trace", str(trace),
                                     "--smoke")
        self.assertEqual(rc, 0, proc.stderr[-2000:])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        metrics = result["metrics"]
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in declared))
        for m in declared:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        if not trace:
            for m in declared:
                self.assertNotEqual(metrics[m["name"]]["value"], 0, m["name"])
        else:
            self.assertEqual(metrics["outcome.traced_matches_untraced"]["value"], 1)

    def test_usage_errors_exit_nonzero(self):
        rc, result, _ = run_bench("--workload", "no_such_workload", "--seed", "1",
                                  "--seconds", "1")
        self.assertNotEqual(rc, 0)
        self.assertIsNone(result)


def _add_smoke_cases():
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            def case(self, w=w["name"], trace=trace):
                self.check(w, trace)
            setattr(SmokeTest, f"test_{w['name']}_trace{trace}", case)


_add_smoke_cases()

if __name__ == "__main__":
    unittest.main()
