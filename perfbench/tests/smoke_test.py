#!/usr/bin/env python3
"""Tiny-scale smoke test of the benchmark.

Runs every workload of BENCHMARK.json at a small fraction of its XMark scale
for one second, under two seeds, untraced and traced, and checks that

  * the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics, all answers correct and none failed;
  * --trace 0 prints exactly the end_to_end metrics and --trace 1 exactly
    the per_layer metrics, each with the unit BENCHMARK.json declares;
  * the record line carries the host fingerprint;
  * a deliberately corrupted answer (--corrupt-one-answer) is caught.

Run from the root of a checkout:  python3 perfbench/tests/smoke_test.py
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SCALE_FACTOR = "0.05"
SEEDS = (3, 8)


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--scale-factor", SCALE_FACTOR, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=900)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError("%s failed (rc %d): %s" % (
            " ".join(cmd), proc.returncode, proc.stderr.decode()[-2000:]))
    return lines


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_metrics(self, metrics, declared):
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in declared))
        for m in declared:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_metric_under_two_seeds(self):
        for w in self.spec["workloads"]:
            for seed in SEEDS:
                for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                    with self.subTest(workload=w["name"], seed=seed,
                                      trace=trace):
                        lines = run(w["name"], seed, trace)
                        result = json.loads(lines[-1])
                        self.assertEqual(
                            sorted(result),
                            ["attempted", "correct", "failed", "metrics"])
                        self.assertTrue(result["correct"])
                        self.assertGreaterEqual(result["attempted"], 1)
                        self.assertEqual(result["failed"], 0)
                        self.check_metrics(result["metrics"], self.spec[kind])
                        record = json.loads(lines[-2][len("# record "):])
                        fp = record["fingerprint"]
                        for key in ("cpu", "nproc", "compiler", "build_type",
                                    "seed", "scale"):
                            self.assertIn(key, fp)
                        self.assertEqual(fp["seed"], seed)
                        self.assertEqual(len(record["result_nodes"]), 17)

    def test_corrupted_answer_is_caught(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                result = json.loads(
                    run(w["name"], SEEDS[0], 0, "--corrupt-one-answer")[-1])
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
