#!/usr/bin/env python3
"""Unit tests for compare.py's verdicts."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402

SPEC = {
    "workloads": [{"name": "w", "why": "test"}],
    "end_to_end": [
        {"name": "t_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "ops", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}


def runs(values, failed=0, trace=0):
    return [{"workload": "w", "trace": trace, "failed": failed,
             "metrics": {"t_s": {"value": v, "unit": "s"},
                         "ops": {"value": 1000 / v, "unit": "1/s"}}}
            for v in values]


def verdicts(parent, change):
    rows = compare.compare({"w": parent}, {"w": change}, SPEC)
    return {metric: result for _, metric, result, _ in rows}


PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]


class CompareTest(unittest.TestCase):
    def test_clear_speedup_is_a_gain_in_both_directions(self):
        change = [v * 0.8 for v in PARENT]
        self.assertEqual(verdicts(runs(PARENT), runs(change)),
                         {"t_s": "gain", "ops": "gain"})

    def test_gain_needs_ten_pairs(self):
        change = [v * 0.8 for v in PARENT[:9]]
        self.assertEqual(verdicts(runs(PARENT[:9]), runs(change))["t_s"],
                         "ok")

    def test_gain_needs_nine_wins_in_ten(self):
        change = [v * 0.8 for v in PARENT]
        change[0], change[1] = PARENT[0] * 1.01, PARENT[1] * 1.01
        self.assertEqual(verdicts(runs(PARENT), runs(change))["t_s"], "ok")

    def test_no_gain_when_more_units_fail(self):
        change = runs([v * 0.8 for v in PARENT])
        change[3]["failed"] = 1
        self.assertEqual(verdicts(runs(PARENT), change)["t_s"], "ok")

    def test_slowdown_beyond_bound_is_a_regression(self):
        change = [v * 1.2 for v in PARENT]
        self.assertEqual(verdicts(runs(PARENT), runs(change)),
                         {"t_s": "regression", "ops": "regression"})

    def test_slowdown_within_bound_is_ok(self):
        change = [v * 1.05 for v in PARENT]
        self.assertEqual(verdicts(runs(PARENT), runs(change))["t_s"], "ok")

    def test_wide_spread_is_unresolved(self):
        noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.4, 0.75, 1.1]
        change = [v * 1.2 for v in noisy]
        self.assertEqual(verdicts(runs(noisy), runs(change))["t_s"],
                         "unresolved")

    def test_wide_spread_but_every_run_better(self):
        parent = [2.0, 2.4, 2.8, 3.2, 3.6]
        change = [1.0, 1.2, 1.4, 1.6, 1.8]
        self.assertEqual(verdicts(runs(parent), runs(change))["t_s"],
                         "better")

    def test_cli_skips_traced_runs_and_fails_on_regression(self):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, recs in (("p", runs(PARENT) + runs([9.0], trace=1)),
                               ("c", runs([v * 1.3 for v in PARENT]))):
                paths.append(os.path.join(tmp, name + ".jsonl"))
                with open(paths[-1], "w", encoding="utf-8") as f:
                    f.writelines(json.dumps(r) + "\n" for r in recs)
            spec = os.path.join(tmp, "spec.json")
            with open(spec, "w", encoding="utf-8") as f:
                json.dump(SPEC, f)
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "compare.py")] + paths +
                ["--spec", spec], capture_output=True, text=True,
                check=False)
            self.assertEqual(out.returncode, 1, out.stdout + out.stderr)
            self.assertIn(" 0/10 ", out.stdout)  # the traced run is skipped
            self.assertIn("regression", out.stdout)


if __name__ == "__main__":
    unittest.main()
