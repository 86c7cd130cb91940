#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py            # from the checkout root

* A short run of every workload prints every end-to-end metric named in
  BENCHMARK.json, with its unit, and passes its output checks; a short
  traced run prints every per-layer metric.
* Each output check catches a deliberately falsified expectation
  (--corrupt): the run reports "correct": false and exits non-zero.
* A build with QDLP_CHECK_INVARIANTS refuses to report numbers.
* Without the repository's sources the benchmark fails without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def run(*args, cwd=ROOT, timeout=600):
    done = subprocess.run(RUN + list(args), cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout,
                          check=False)
    lines = done.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    return done.returncode, result, done.stdout + done.stderr


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, expected):
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in expected))
        for metric in expected:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float))

    def test_every_workload_prints_every_end_to_end_metric(self):
        # serve-churn runs by name although BENCHMARK.json does not list it.
        for workload in ["replay-grid", "cache-churn", "serve-churn"]:
            with self.subTest(workload=workload):
                status, result, output = run(
                    "--workload", workload, "--seed", "3",
                    "--seconds", "2", "--trace", "0")
                self.assertEqual(status, 0, output)
                self.assertTrue(result["correct"], output)
                self.assertEqual(result["failed"], 0, output)
                self.assertGreaterEqual(result["attempted"], 1)
                self.check_metrics(result, SPEC["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_run_prints_every_per_layer_metric(self):
        status, result, output = run("--workload", "cache-churn", "--seed",
                                     "3", "--seconds", "2", "--trace", "1")
        self.assertEqual(status, 0, output)
        self.assertTrue(result["correct"], output)
        self.check_metrics(result, SPEC["per_layer"])
        self.assertIn("spans written to", output)


class OutputCheckTest(unittest.TestCase):
    def test_each_check_catches_a_falsified_expectation(self):
        cases = [("replay-grid", "replay"), ("cache-churn", "cache"),
                 ("serve-churn", "serve-bytes"), ("serve-churn", "serve-stats")]
        for workload, check in cases:
            with self.subTest(check=check):
                status, result, output = run(
                    "--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", "0", "--corrupt", check)
                self.assertNotEqual(status, 0, output)
                self.assertFalse(result["correct"], output)
                self.assertGreater(result["failed"], 0, output)
                self.assertIn("divergence:", output)


class BuildTest(unittest.TestCase):
    def test_invariant_checking_build_refuses_to_report(self):
        build = os.path.join(ROOT, ".bench_build", "perfbench-invariants")
        for step in (["cmake", "-S", HERE, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release", "-DQDLP_CHECK_INVARIANTS=ON"],
                     ["cmake", "--build", build, "--target", "qdlp_perfbench",
                      "-j", "4"]):
            subprocess.run(step, check=True, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
        done = subprocess.run(
            [os.path.join(build, "qdlp_perfbench"), "--workload",
             "cache-churn", "--seed", "1", "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=120, check=False)
        self.assertEqual(done.returncode, 3)
        self.assertEqual(done.stdout, "")
        self.assertIn("QDLP_CHECK_INVARIANTS", done.stderr)

    def test_fails_without_the_repository_sources(self):
        alone = os.path.join(ROOT, ".bench_build", "alone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        shutil.copytree(HERE, os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cache-churn",
             "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=alone,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=180, check=False)
        shutil.rmtree(alone, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
