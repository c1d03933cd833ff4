"""Verdicts of the compare report."""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import compare  # noqa: E402

SPEC = {
    "workloads": [{"name": "w", "why": ""}],
    "end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}],
    "per_layer": [{"name": "cli.self_s", "unit": "s", "better": "lower"}],
}


def run(seed, run_s, trace=0, layer=None):
    return {"workload": "w", "seed": seed, "trace": trace, "end_to_end": {"run_s": run_s},
            "per_layer": None if layer is None else {"cli.self_s": layer}}


class VerdictTest(unittest.TestCase):
    def test_regression_beyond_the_bound(self):
        self.assertEqual(compare.verdict([1.3, 1.31, 1.29, 1.3], 0.25, "lower"), "REGRESSION")
        self.assertEqual(compare.verdict([1.1, 1.11, 1.09, 1.1], 0.25, "lower"), "same")
        # For a higher-is-better metric the same drop is a regression.
        self.assertEqual(compare.verdict([0.7, 0.71, 0.69, 0.7], 0.25, "higher"), "REGRESSION")

    def test_wide_spread_is_unresolved(self):
        self.assertEqual(compare.verdict([1.0, 1.5, 0.6, 1.2], 0.25, "lower"), "unresolved")
        # Unless every seed got better: then it is not worse.
        self.assertEqual(compare.verdict([0.3, 0.6, 0.2, 0.5], 0.25, "lower"), "better")
        self.assertEqual(compare.verdict([1.0], 0.25, "lower"), "unresolved")

    def test_better_by_more_than_the_spread(self):
        self.assertEqual(compare.verdict([0.8, 0.81, 0.79, 0.8], 0.25, "lower"), "better")
        # One seed in five got worse: not better, whatever the median.
        self.assertEqual(compare.verdict([0.9, 0.91, 0.92, 1.01, 0.9], 0.25, "lower"), "same")

    def test_seed_differences_cancel(self):
        # Seed 2's inputs cost five times seed 1's; each seed alone is steady.
        base = [run(1, 1.0), run(2, 5.0), run(1, 1.02), run(2, 5.1)]
        new = [run(1, 1.01), run(2, 5.05)]
        [row] = [r for r in compare.compare(base, new, SPEC) if r[1] == "run_s"]
        self.assertEqual(row[6], "same")
        self.assertEqual(row[4], "+0.0%")

    def test_only_common_seeds_are_compared(self):
        base = [run(1, 1.0), run(2, 1.0), run(3, 1.0)]
        new = [run(2, 2.0), run(3, 2.0), run(4, 0.1)]
        [row] = [r for r in compare.compare(base, new, SPEC) if r[1] == "run_s"]
        self.assertEqual(row[6], "REGRESSION")
        self.assertTrue(row[2].endswith("n=2") and row[3].endswith("n=2"))
        [line] = compare.seed_warnings(compare.metric_runs(base), compare.metric_runs(new))
        self.assertIn("only in base [1]", line)
        self.assertIn("only in new [4]", line)

    def test_rows_per_workload_and_metric(self):
        runs = [run(1, 2.0), run(2, 2.0), run(1, 9.0, trace=1, layer=0.5)]
        rows = compare.compare(runs, runs, SPEC)
        self.assertEqual([(r[0], r[1], r[6]) for r in rows],
                         [("w", "run_s", "same"), ("w", "cli.self_s", "info")])
        self.assertTrue(rows[0][2].startswith("2 "))

    def test_summary_splits_noise_from_seeds(self):
        runs = [run(1, 1.0), run(1, 1.0), run(2, 2.0), run(2, 2.0), run(3, 3.0), run(3, 3.0)]
        item = compare.summary(runs, SPEC)["w"]["end_to_end"]["run_s"]
        self.assertEqual(item["noise_spread"], 0.0)
        self.assertGreater(item["seed_spread"], 0.5)
        self.assertEqual((item["runs"], item["seeds"]), (6, 3))


if __name__ == "__main__":
    unittest.main()
