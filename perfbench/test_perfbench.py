#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

Every workload runs in smoke mode (a twentieth of the calls, two seconds)
with and without tracing; each must pass its correctness checks and print
exactly the metrics BENCHMARK.json names, with their units. Two runs of
the simulated workload with the same seed must agree bit for bit. A
replica made to diverge on purpose must fail the checks, and a directory
holding only the benchmark (no runtime sources) must fail without
printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace, kind):
        p = run("--workload", workload, "--seed", "3", "--seconds", "2",
                "--trace", str(trace), "--smoke")
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        result = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], p.stdout[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = result["metrics"]
        self.assertEqual(set(got), set(want))
        for name, unit in want.items():
            self.assertEqual(got[name]["unit"], unit, name)
            self.assertIsInstance(got[name]["value"], (int, float), name)
        return got

    def test_workloads(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                got = self.check_run(w["name"], 0, "end_to_end")
                for name, m in got.items():
                    self.assertGreater(m["value"], 0, name)
            with self.subTest(workload=w["name"], trace=1):
                self.check_run(w["name"], 1, "per_layer")


class DeterminismTest(unittest.TestCase):
    # On the sim transport every figure but set-up time and memory is in
    # simulated time.
    HOST_METRICS = {"setup_s", "peak_rss_mb"}

    def test_sim_workload_repeats_across_runs(self):
        outs = []
        for _ in range(2):
            p = run("--workload", "sim-courseware-fail", "--seed", "5",
                    "--seconds", "2", "--trace", "0", "--smoke")
            self.assertEqual(p.returncode, 0, p.stderr[-2000:])
            lines = p.stdout.strip().splitlines()
            digest = re.search(r"digest ([0-9a-f]{16})", lines[-2])
            self.assertIsNotNone(digest, lines[-2])
            metrics = json.loads(lines[-1])["metrics"]
            outs.append((digest.group(1),
                         {k: v["value"] for k, v in metrics.items()
                          if k not in self.HOST_METRICS}))
        self.assertEqual(outs[0], outs[1])


class CheckTest(unittest.TestCase):
    def test_diverged_replica_fails_the_checks(self):
        p = run("--selftest-diverge")
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        self.assertEqual(json.loads(p.stdout.strip().splitlines()[-1]),
                         {"clean_ok": True, "diverged_detected": True})

    def test_bad_arguments_are_refused(self):
        p = run("--workload", "no-such-workload", "--seed", "1",
                "--seconds", "1", "--trace", "0")
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, "")

    def test_benchmark_alone_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "shm-bank", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=180,
                env={**os.environ, "CARGO_TARGET_DIR": ".bench_build"})
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
