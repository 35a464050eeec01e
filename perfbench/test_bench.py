#!/usr/bin/env python3
"""Tests of the benchmark itself.

Run from the root of a checkout (builds the benchmark on first use):

    python3 perfbench/test_bench.py

They check that BENCHMARK.json and the benchmark's own metric catalog agree,
that a short run of every workload reports every named metric with its unit
and passes its correctness gates, and that a flipped prediction or a
tampered rung makes the gates fail.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace=0, seconds=2, inject=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    assert lines, f"no output from {cmd}: {p.stderr}"
    return p.returncode, json.loads(lines[-1]), p.stderr


class Catalog(unittest.TestCase):
    def test_benchmark_json_matches_the_binary(self):
        target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
        subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                        "--manifest-path", os.path.join(HERE, "Cargo.toml")],
                       env=dict(os.environ, CARGO_TARGET_DIR=target), check=True)
        out = subprocess.run([os.path.join(target, "release", "perfbench"), "--list-metrics"],
                             capture_output=True, text=True, check=True).stdout
        listed = [tuple(line.split()) for line in out.splitlines()]
        declared = [("end_to_end", m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]]
        declared += [("per_layer", m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
        self.assertEqual(listed, declared)


class QuickRuns(unittest.TestCase):
    def check(self, workload, trace, section):
        code, result, err = run(workload, trace=trace)
        self.assertEqual(code, 0, err)
        self.assertTrue(result["correct"], err)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, v in result["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), name)
        return result

    def test_every_workload_reports_every_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w, trace=0):
                r = self.check(w, 0, "end_to_end")
                for m in SPEC["end_to_end"]:
                    self.assertNotEqual(r["metrics"][m["name"]]["value"], 0, m["name"])
            with self.subTest(workload=w, trace=1):
                r = self.check(w, 1, "per_layer")
                if w.startswith("mlp"):
                    routes = sum(v["value"] for k, v in r["metrics"].items()
                                 if k.startswith("core.route."))
                    self.assertGreater(routes, 0)


class Gates(unittest.TestCase):
    def test_a_wrong_prediction_fails_the_gate(self):
        for w in ["mlp_serve", "mlp_int_k8"]:
            with self.subTest(workload=w):
                code, result, err = run(w, inject="wrong-prediction")
                self.assertFalse(result["correct"])
                self.assertEqual(code, 1)
                self.assertIn("differ from the reference", err)

    def test_a_tampered_rung_fails_the_gate(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, err = run(w, inject="tampered-rung")
                self.assertFalse(result["correct"])
                self.assertEqual(code, 1)


if __name__ == "__main__":
    unittest.main()
