#!/usr/bin/env python3
"""Tests of the benchmark's own helpers, and a one-second smoke run of each
workload that must report no wrong answer.

    python3 perfbench/test_perfbench.py      # from the root of a checkout
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import benchstats  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        self.assertEqual(benchstats.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
                         (2.75, 5.5, 8.25))

    def test_odd_count_median_is_middle(self):
        self.assertEqual(benchstats.quartiles([5, 1, 3])[1], 3)

    def test_single_value(self):
        self.assertEqual(benchstats.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            benchstats.quartiles([])

    def test_relative_spread(self):
        self.assertAlmostEqual(
            benchstats.relative_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
            5.5 / 5.5)
        self.assertEqual(benchstats.relative_spread([3, 3, 3]), 0.0)


class HelpersBinaryTest(unittest.TestCase):
    """The driver's percentile, sample-count and self-time math lives in C++."""

    def test_helpers_binary(self):
        binary = os.path.join(ROOT, run.BUILD_DIR, "perfbench_helpers_test")
        if not os.path.exists(binary):
            self.assertIsNotNone(run.build(ROOT), "build failed")
        proc = subprocess.run([binary], stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)


class VerdictTest(unittest.TestCase):
    def pairs(self, parent, change):
        return list(zip(parent, change))

    def test_improved_when_nine_tenths_win_beyond_the_spread(self):
        parent = [100 + i for i in range(10)]
        change = [130 + i for i in range(10)]
        self.assertEqual(benchstats.verdict(self.pairs(parent, change),
                                            "higher", 0.1), benchstats.IMPROVED)

    def test_lower_is_better_direction(self):
        parent = [10.0 + 0.1 * i for i in range(10)]
        change = [7.0 + 0.1 * i for i in range(10)]
        self.assertEqual(benchstats.verdict(self.pairs(parent, change),
                                            "lower", 0.1), benchstats.IMPROVED)
        self.assertEqual(benchstats.verdict(self.pairs(change, parent),
                                            "lower", 0.1), benchstats.WORSE)

    def test_too_few_pairs_never_claim_a_gain(self):
        parent = [100, 101, 102]
        change = [150, 151, 152]
        self.assertEqual(benchstats.verdict(self.pairs(parent, change),
                                            "higher", 0.1), benchstats.WITHIN)

    def test_within_bound(self):
        parent = [100 + i for i in range(10)]
        change = [97 + i for i in range(10)]
        self.assertEqual(benchstats.verdict(self.pairs(parent, change),
                                            "higher", 0.1), benchstats.WITHIN)

    def test_worse_beyond_bound(self):
        parent = [100 + i for i in range(10)]
        change = [80 + i for i in range(10)]
        self.assertEqual(benchstats.verdict(self.pairs(parent, change),
                                            "higher", 0.1), benchstats.WORSE)

    def test_unresolved_when_parent_spread_exceeds_bound(self):
        parent = [50, 150, 60, 140, 70, 130, 80, 120, 90, 110]
        change = [70, 130, 60, 140, 50, 150, 90, 110, 80, 120]
        self.assertEqual(benchstats.verdict(self.pairs(parent, change),
                                            "higher", 0.1),
                         benchstats.UNRESOLVED)

    def test_wide_spread_resolved_when_every_change_run_wins(self):
        parent = [50, 60, 70, 80, 90]
        change = [200, 210, 220, 230, 240]
        self.assertEqual(benchstats.verdict(self.pairs(parent, change),
                                            "higher", 0.1), benchstats.WITHIN)

    def test_ties_count_for_neither_side(self):
        pairs = [(1, 1), (1, 2), (2, 1), (1, 3)]
        self.assertEqual(benchstats.win_share(pairs, "higher"), 0.5)

    def test_compare_pairs_by_seed_and_reports_every_metric(self):
        spec_ = {"workloads": [{"name": "w"}],
                 "end_to_end": [{"name": "x_ms", "unit": "ms",
                                 "better": "lower", "bound": 0.1}]}
        parent = {"w": {s: {"x_ms": {"value": 10.0 + 0.01 * s}} for s in range(10)}}
        change = {"w": {s: {"x_ms": {"value": 20.0 + 0.01 * s}} for s in range(10)}}
        rows = compare.compare(parent, change, spec_)
        self.assertEqual(len(rows), 1)
        self.assertEqual(rows[0][-1], benchstats.WORSE)
        self.assertEqual(rows[0][-2], 10)


class SpecTest(unittest.TestCase):
    def test_metric_names_and_units(self):
        s = spec()
        names = [w["name"] for w in s["workloads"]]
        for m in s["end_to_end"] + s["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in s["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        self.assertIn("setup_s", [m["name"] for m in s["end_to_end"]])

    def test_workloads(self):
        self.assertEqual([w["name"] for w in spec()["workloads"]],
                         ["analytic", "paged_rw"])


class SmokeTest(unittest.TestCase):
    """A one-second run of each workload, untraced and traced: every answer
    right, every metric of BENCHMARK.json present with its unit."""

    def smoke(self, workload, trace):
        build_dir = os.path.join(ROOT, run.BUILD_DIR)
        os.makedirs(build_dir, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_dir) as tmp:
            out = os.path.join(tmp, "record.json")
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", "7", "--seconds", "1", "--trace",
                 str(trace), "--out", out],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
            self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(sorted(result),
                             ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            if workload != "fleet":  # fleet agents send bad SQL on purpose
                self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            wanted = spec()["per_layer" if trace else "end_to_end"]
            self.assertEqual(sorted(result["metrics"]),
                             sorted(m["name"] for m in wanted))
            with open(out) as f:
                record = json.load(f)
            for key in ("seed", "nproc", "build_type", "compiler",
                        "source_sha256", "confirm_seed"):
                self.assertIn(key, record["stamp"])
            return result["metrics"]

    def invalid_probe(self, workload):
        """Runs the driver with one probe whose query is invalid."""
        driver = os.path.join(ROOT, run.BUILD_DIR, "perfbench_driver")
        if not os.path.exists(driver):
            self.assertIsNotNone(run.build(ROOT), "build failed")
        with tempfile.TemporaryDirectory(
                dir=os.path.join(ROOT, run.BUILD_DIR)) as tmp:
            proc = subprocess.run(
                [driver, "--workload", workload, "--seed", "7", "--seconds",
                 "1", "--trace", "0", "--invalid-probe", "1", "--work-dir",
                 tmp], cwd=ROOT, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=600)
        line = proc.stdout.strip().splitlines()[-1]
        self.assertTrue(line.startswith("PERFBENCH_RESULT "), line)
        return proc.returncode, json.loads(line[len("PERFBENCH_RESULT "):])

    def test_failed_answer_fails_an_exact_workload(self):
        for workload in ("analytic", "paged_rw"):
            code, result = self.invalid_probe(workload)
            self.assertEqual(code, 1, workload)
            self.assertFalse(result["correct"], workload)
            self.assertGreaterEqual(result["failed"], 1, workload)

    def test_failed_answer_is_counted_on_fleet(self):
        code, result = self.invalid_probe("fleet")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertGreater(result["metrics"]["error_rate"]["value"], 0)

    def test_fleet(self):
        self.smoke("fleet", 0)

    def test_analytic(self):
        self.smoke("analytic", 0)
        self.smoke("analytic", 1)

    def test_paged_rw(self):
        self.smoke("paged_rw", 0)
        self.assertGreater(
            self.smoke("paged_rw", 1)["storage.fault_ratio"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
