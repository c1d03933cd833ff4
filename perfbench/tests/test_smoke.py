"""Tiny-size end-to-end runs of every workload through run.py."""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


class SmokeTest(unittest.TestCase):
    def result(self, workload, trace, seed=3):
        proc = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                         "--trace", str(trace), "--size", "tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return result

    def test_every_workload_untraced(self):
        for workload in ("xi-cli", "db-cli", "verify-cli", "session"):
            with self.subTest(workload=workload):
                metrics = self.result(workload, 0)["metrics"]
                self.assertEqual(list(metrics), declared("end_to_end"))
                for name, entry in metrics.items():
                    self.assertGreater(entry["value"], 0, name)

    def test_every_workload_traced(self):
        for workload in ("xi-cli", "db-cli", "verify-cli", "session"):
            with self.subTest(workload=workload):
                metrics = self.result(workload, 1)["metrics"]
                self.assertEqual(list(metrics), declared("per_layer"))
                shares = sum(v["value"] for k, v in metrics.items() if k.startswith("query."))
                self.assertAlmostEqual(shares, 1.0 if workload == "session" else 0.0, delta=0.1)

    def test_exact_counts_repeat(self):
        names = ("countcore.w_number.calls", "charkit.character.calls", "trace.spans")
        first, second = (self.result("xi-cli", 1, seed=5)["metrics"] for _ in range(2))
        for name in names:
            self.assertEqual(first[name]["value"], second[name]["value"], name)
        self.assertGreater(first["countcore.w_number.calls"]["value"], 0)
        db = self.result("db-cli", 1)["metrics"]
        self.assertGreater(db["dimred.reduce_mu.calls"]["value"], 0)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("--workload", "session", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
