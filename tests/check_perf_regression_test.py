#!/usr/bin/env python3
"""Tests for bench/check_perf_regression.py, run on synthetic bench JSON lines.

Usage: check_perf_regression_test.py <path to check_perf_regression.py>
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = None  # set from argv in __main__

CFG = {"cfg_jit": 0, "cfg_probes": 1, "cfg_sanitizer": "none"}


def jit_speedup(value, available=1, **cfg):
    return {"bench": "faultpath", "metric": "jit_speedup", "value": value,
            "available": available, **CFG, **cfg}


class GateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        # With the default factor 0.75, the floor is 1.5.
        self.baseline = self.write("baseline.json", json.dumps({
            "faultpath.jit_speedup": 2.0,
            "_config": {"cfg_probes": 1, "cfg_sanitizer": "none"},
        }))

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, text):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def capture(self, name, *records):
        lines = ["bench table line, ignored by the gate"]
        lines += [json.dumps(rec) for rec in records]
        return self.write(name, "\n".join(lines) + "\n")

    def gate(self, inputs, reports=()):
        cmd = [sys.executable, SCRIPT, "--baseline", self.baseline]
        for path in inputs:
            cmd += ["--input", path]
        for path in reports:
            cmd += ["--report", path]
        return subprocess.run(cmd, capture_output=True, text=True, check=False)

    def runs(self, *values):
        return [self.capture(f"run{i}.out", jit_speedup(v)) for i, v in enumerate(values)]

    def test_one_outlier_below_the_floor_passes_on_the_median(self):
        result = self.gate(self.runs(1.8, 1.2, 1.7))
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("median of 3", result.stdout)
        self.assertIn("IQR", result.stdout)

    def test_two_of_three_below_the_floor_fail(self):
        result = self.gate(self.runs(1.8, 1.2, 1.3))
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("REGRESSION", result.stdout)

    def test_samples_within_one_capture_also_take_the_median(self):
        path = self.capture("all.out", jit_speedup(1.2), jit_speedup(1.7), jit_speedup(1.8))
        result = self.gate([path])
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("median of 3", result.stdout)

    def test_report_does_not_override_input(self):
        report = self.write("report.json",
                            json.dumps({"metrics": {"faultpath.jit_speedup": 1.0}}))
        result = self.gate(self.runs(1.8), reports=[report])
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_report_fills_a_metric_no_input_produced(self):
        report = self.write("report.json",
                            json.dumps({"metrics": {"faultpath.jit_speedup": 1.0}}))
        result = self.gate([], reports=[report])
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("REGRESSION", result.stdout)

    def test_mismatched_cfg_values_are_refused(self):
        inputs = [self.capture("a.out", jit_speedup(1.8)),
                  self.capture("b.out", jit_speedup(1.8, cfg_probes=0))]
        result = self.gate(inputs)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("disagree on cfg_probes", result.stderr)

    def test_cfg_contradicting_the_baseline_is_refused(self):
        result = self.gate([self.capture("a.out", jit_speedup(1.8, cfg_sanitizer="asan"))])
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("_config", result.stderr)

    def test_unavailable_jit_rows_are_skipped(self):
        # A host without a JIT emitter reports ~1.0, far below the floor; the gate must
        # drop the row rather than fail on it.
        ir_speedup = {"bench": "executor_arith_loop", "metric": "ir_speedup", "value": 3.0,
                      **CFG}
        path = self.capture("nojit.out", jit_speedup(1.0, available=0), ir_speedup)
        result = self.gate([path])
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertNotIn("faultpath.jit_speedup", result.stdout)
        self.assertIn("nothing to gate", result.stdout)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    SCRIPT = sys.argv.pop(1)
    unittest.main()
