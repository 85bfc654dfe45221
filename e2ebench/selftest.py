#!/usr/bin/env python3
"""The benchmark's own test: its correctness check must catch a wrong
answer and count it against completed_frac, without aborting the run.

    python3 e2ebench/selftest.py

For each workload it makes one short run as is, which must report every
operation correct, and one with --corrupt-expected, which perturbs every
expected value the checks compare against; there every operation must be
counted as failed, under the cause the perturbed value belongs to.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

CORRUPTED_CAUSE = {
    "compile": "wrong_result",
    "batch": "wrong_result",
}


def run(workload, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", "0",
           *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise AssertionError(f"{cmd} exited {done.returncode}:\n"
                             f"{done.stderr[-3000:]}")
    lines = done.stdout.strip().splitlines()
    causes = next(json.loads(l)["failures_by_cause"] for l in lines
                  if l.startswith('{"failures_by_cause"'))
    return json.loads(lines[-1]), causes


class CorrectnessCheck(unittest.TestCase):
    def test_clean_runs_pass(self):
        for workload in CORRUPTED_CAUSE:
            with self.subTest(workload=workload):
                result, causes = run(workload)
                self.assertTrue(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(causes, {})
                self.assertEqual(
                    result["metrics"]["completed_frac"]["value"], 1.0)

    def test_corrupted_expected_value_counts_as_failure(self):
        for workload, cause in CORRUPTED_CAUSE.items():
            with self.subTest(workload=workload):
                result, causes = run(workload, "--corrupt-expected")
                self.assertFalse(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], result["attempted"])
                self.assertEqual(causes, {cause: result["attempted"]})
                self.assertEqual(
                    result["metrics"]["completed_frac"]["value"], 0.0)


if __name__ == "__main__":
    unittest.main()
