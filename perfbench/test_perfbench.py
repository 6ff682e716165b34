#!/usr/bin/env python3
"""Smoke tests of the benchmark itself: python3 perfbench/test_perfbench.py

Runs every workload in --smoke mode (seconds each) and checks the result
contract against BENCHMARK.json, same-seed determinism of the virtual
metrics, and that a checkout without the program's sources fails cleanly.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)
VIRTUAL = ("p50_ms", "p99_ms")


def smoke(workload, trace, seed=7):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=900, check=False, cwd=ROOT)
    lines = done.stdout.splitlines()
    return done.returncode, lines, run.parse_result(lines)


class PerfbenchSmoke(unittest.TestCase):
    def test_workloads_match_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))

    def test_end_to_end_contract_and_determinism(self):
        names = [m["name"] for m in SPEC["end_to_end"]]
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = smoke(workload, 0)
                self.assertEqual(code, 0, "\n".join(lines))
                self.assertIsNotNone(result)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(list(result["metrics"]), names)
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)
                self.assertIn("error_rate", run.report_of(lines))
                _, _, again = smoke(workload, 0)
                for name in VIRTUAL:
                    self.assertEqual(result["metrics"][name],
                                     again["metrics"][name])

    def test_per_layer_contract(self):
        names = [m["name"] for m in SPEC["per_layer"]]
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = smoke(workload, 1)
                self.assertEqual(code, 0, "\n".join(lines))
                self.assertTrue(result["correct"])
                self.assertEqual(list(result["metrics"]), names)
                for name, metric in result["metrics"].items():
                    self.assertEqual(metric["unit"], units[name])
                self.assertEqual(result["metrics"]["gdh.rpc_retries"]["value"], 0)
                self.assertEqual(
                    result["metrics"]["gdh.deadlock_aborts"]["value"], 0)
                self.assertGreater(
                    result["metrics"]["trace.net_ms_per_stmt"]["value"], 0)

    def test_fails_without_sources(self):
        base = os.path.join(run.build_dir(), "bare-checkout")
        shutil.rmtree(base, ignore_errors=True)
        os.makedirs(base)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), base)
            shutil.copytree(HERE, os.path.join(base, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ,
                       CARGO_TARGET_DIR=tempfile.mkdtemp(dir=base))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "oltp_mix",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                timeout=180, check=False, cwd=base, env=env)
            self.assertNotEqual(done.returncode, 0)
            self.assertIsNone(run.parse_result(done.stdout.splitlines()))
        finally:
            shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
