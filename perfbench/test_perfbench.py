#!/usr/bin/env python3
"""Tests of the benchmark's own code.

    python3 perfbench/test_perfbench.py

Covers the Python tooling (order statistics, metric-name rule, result
schema), builds and runs the C++ unit tests of the harness (statistics,
names, span self time, result line), and smoke-runs every workload at
tiny size through perfbench/run.py, untraced and traced.
"""

import json
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

BUILD_DIR = os.path.join(benchlib.ROOT, ".bench_build", "perfbench")


class StatisticsTest(unittest.TestCase):
    def test_quartiles(self):
        self.assertEqual(benchlib.quartiles([3, 1, 2, 4, 5]), (1.5, 3, 4.5))
        self.assertEqual(benchlib.quartiles(list(range(1, 11))),
                         (2.75, 5.5, 8.25))
        self.assertEqual(benchlib.quartiles([10, 20]), (7.5, 15.0, 22.5))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(benchlib.spread(list(range(1, 11))),
                               (8.25 - 2.75) / 5.5)
        self.assertEqual(benchlib.spread([5, 5, 5, 5]), 0.0)

    def test_worse_by_follows_direction(self):
        self.assertAlmostEqual(benchlib.worse_by(10.0, 11.0, "lower"), 0.1)
        self.assertAlmostEqual(benchlib.worse_by(10.0, 9.0, "higher"), 0.1)
        self.assertAlmostEqual(benchlib.worse_by(10.0, 11.0, "higher"), -0.1)


class NameTest(unittest.TestCase):
    def test_valid_names(self):
        for name in ("probes_per_s", "telescope.fold_ns_per_event",
                     "sim.study.trial_s-p50", "0ratio", "a" * 64):
            self.assertTrue(benchlib.valid_name(name), name)

    def test_invalid_names(self):
        for name in ("", "a" * 65, ".dot", "_under", "-dash", "has space",
                     "slash/name", "quote\"", "ümlaut", None, 3):
            self.assertFalse(benchlib.valid_name(name), repr(name))

    def test_declared_names_follow_the_rule(self):
        benchmark = benchlib.load_benchmark()
        names = [w["name"] for w in benchmark["workloads"]]
        for key in ("end_to_end", "per_layer"):
            names += [metric["name"] for metric in benchmark[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(benchlib.valid_name(name), name)
        for metric in benchmark["end_to_end"] + benchmark["per_layer"]:
            self.assertRegex(metric["unit"], benchlib.UNIT_RE)


class SchemaTest(unittest.TestCase):
    EXPECTED = {"wall_s": "s", "probes_per_s": "1/s"}

    def good(self):
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {"wall_s": {"value": 0.5, "unit": "s"},
                            "probes_per_s": {"value": 2e7, "unit": "1/s"}}}

    def test_good_result_passes(self):
        self.assertEqual(benchlib.validate_result(self.good(), self.EXPECTED),
                         [])

    def test_failed_run_needs_no_metrics(self):
        result = {"correct": False, "attempted": 3, "failed": 3,
                  "metrics": {}}
        self.assertEqual(benchlib.validate_result(result, self.EXPECTED), [])

    def test_problems_are_reported(self):
        cases = []
        result = self.good()
        del result["metrics"]["wall_s"]
        cases.append(result)
        result = self.good()
        result["extra"] = 1
        cases.append(result)
        result = self.good()
        result["metrics"]["wall_s"]["unit"] = "ms"
        cases.append(result)
        result = self.good()
        result["metrics"]["undeclared"] = {"value": 1, "unit": "s"}
        cases.append(result)
        result = self.good()
        result["attempted"] = 0
        cases.append(result)
        result = self.good()
        result["failed"] = 1
        cases.append(result)
        result = self.good()
        result["metrics"]["wall_s"]["value"] = "fast"
        cases.append(result)
        for case in cases:
            self.assertNotEqual(benchlib.validate_result(case, self.EXPECTED),
                                [], case)


class HarnessTest(unittest.TestCase):
    """Builds the harness once, then runs its unit tests and every
    workload at tiny size."""

    @classmethod
    def setUpClass(cls):
        command = [sys.executable, os.path.join(benchlib.ROOT, "perfbench",
                                                "run.py"),
                   "--workload", "study", "--seconds", "1", "--size", "tiny"]
        subprocess.run(command, check=True, capture_output=True)
        subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                        "perfbench_selftest", "-j", "4"],
                       check=True, capture_output=True)

    def test_cpp_unit_tests(self):
        done = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                              capture_output=True, text=True, check=False)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)

    def test_tiny_smoke_every_workload(self):
        benchmark = benchlib.load_benchmark()
        # outbreak is not a BENCHMARK.json workload (see README.md) but
        # stays runnable for its reconciliation line.
        for workload in ("outbreak", "study", "ingest"):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    done = subprocess.run(
                        benchmark["command"] + [
                            "--workload", workload, "--seed", "7",
                            "--seconds", "1", "--trace", str(trace),
                            "--size", "tiny"],
                        cwd=benchlib.ROOT, capture_output=True, text=True,
                        check=False)
                    self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                    lines = done.stdout.strip().split("\n")
                    result = json.loads(lines[-1])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(benchlib.validate_result(
                        result, benchlib.expected_metrics(benchmark, trace)),
                        [])
                    self.assertTrue(any(line.startswith("provenance ")
                                        for line in lines))
                    if trace and workload == "outbreak":
                        self.assertTrue(any(line.startswith("reconcile: ")
                                            for line in lines))


if __name__ == "__main__":
    unittest.main()
