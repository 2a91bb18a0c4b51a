"""Tests of the repository benchmark, at smoke scale.

    python3 -m unittest perfbench/test_perfbench.py      (from the repo root)

Each workload runs once as it should (exit 0, every end-to-end metric of
BENCHMARK.json reported, finite and positive) and once with --corrupt,
which perturbs one expected output; that run must exit non-zero and report
correct: false.  One traced run must report every per-layer metric, and a
tree without the library sources must fail without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS  # noqa: E402  (gated in BENCHMARK.json or not)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", *args],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, names):
        self.assertEqual(set(result["metrics"]), set(names))
        for name, metric in result["metrics"].items():
            self.assertTrue(math.isfinite(metric["value"]), name)

    def test_each_workload_passes(self):
        names = [m["name"] for m in MANIFEST["end_to_end"]]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                rc, result, err = bench("--workload", workload, "--seconds", "1",
                                        "--trace", "0", "--smoke")
                self.assertEqual(rc, 0, err)
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.check_metrics(result, names)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_corrupted_expected_output_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                rc, result, err = bench("--workload", workload, "--seconds", "1",
                                        "--trace", "0", "--smoke", "--corrupt")
                self.assertNotEqual(rc, 0)
                self.assertFalse(result["correct"])
                self.assertIn("CHECK FAILED", err)

    def test_traced_run_reports_every_layer(self):
        rc, result, err = bench("--workload", "online-games", "--seconds", "2",
                                "--trace", "1", "--smoke")
        self.assertEqual(rc, 0, err)
        self.assertTrue(result["correct"])
        self.check_metrics(result, [m["name"] for m in MANIFEST["per_layer"]])

    def test_fails_without_library_sources(self):
        build = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
        bare = build.resolve() / "bare-tree"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        env = dict(os.environ, CARGO_TARGET_DIR=str(bare / ".bench_build"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
