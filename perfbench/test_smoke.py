#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload on tiny pools, so the
benchmark cannot rot unnoticed. Builds like run.py does.

    python3 perfbench/test_smoke.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*flags):
    proc = subprocess.run(RUN + ["--smoke", "--seconds", "0.2"] + list(flags),
                          capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1]) if lines else None


def digest(lines):
    return next(line.split("inputs ")[1].split()[0] for line in lines if " inputs " in line)


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, wanted):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
        for m in wanted:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_every_workload_reports_every_end_to_end_metric(self):
        code, lines, summary = run("--workload", "all", "--seed", "3")
        self.assertEqual(code, 0, "\n".join(lines))
        self.assertEqual(sorted(summary), sorted(WORKLOADS))
        for name, result in summary.items():
            with self.subTest(workload=name):
                self.check_metrics(result, SPEC["end_to_end"])
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_traced_run_reports_every_per_layer_metric(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                code, lines, result = run("--workload", name, "--trace", "1")
                self.assertEqual(code, 0, "\n".join(lines))
                self.check_metrics(result, SPEC["per_layer"])

    def test_a_wrong_answer_fails_the_run(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                code, _, result = run("--workload", name, "--corrupt")
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_inputs_follow_the_seed(self):
        _, first, _ = run("--workload", "serve-mixed", "--seed", "5")
        _, again, _ = run("--workload", "serve-mixed", "--seed", "5")
        _, other, _ = run("--workload", "serve-mixed", "--seed", "6")
        self.assertEqual(digest(first), digest(again))
        self.assertNotEqual(digest(first), digest(other))


if __name__ == "__main__":
    unittest.main()
