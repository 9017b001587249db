#!/usr/bin/env python3
"""Unit tests of run.py's statistics, run ordering and A/B verdicts.

    python3 benchmark/test_run.py
"""

import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class SummaryTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        s = run.summary(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(s["median"], 4.0)
        self.assertEqual((s["q1"], s["q3"]), (q1, q3))
        self.assertEqual(s["n"], 7)

    def test_single_value_has_no_spread(self):
        self.assertEqual(run.summary([2.5]),
                         {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1})


class RotationTest(unittest.TestCase):
    def test_each_workload_takes_each_position(self):
        names = ["a", "b", "c", "d"]
        orders = [run.rotated(names, k) for k in range(4)]
        self.assertEqual(orders[0], names)
        self.assertEqual(orders[1], ["b", "c", "d", "a"])
        for position in range(4):
            self.assertEqual(sorted(o[position] for o in orders), names)

    def test_wraps_past_the_list(self):
        self.assertEqual(run.rotated(["a", "b"], 3), ["b", "a"])


OLD10 = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


class VerdictTest(unittest.TestCase):
    def test_clear_gain_is_improved(self):
        new = [x * 1.2 for x in OLD10]
        v, won = run.verdict(OLD10, new, "higher", 0.1, True)
        self.assertEqual(v, "improved")
        self.assertEqual(won, 1.0)

    def test_lower_is_better_direction(self):
        old = [x / 100 for x in OLD10]
        new = [x * 0.8 for x in old]
        self.assertEqual(run.verdict(old, new, "lower", 0.1, True)[0],
                         "improved")
        self.assertEqual(run.verdict(new, old, "lower", 0.1, True)[0],
                         "regressed")

    def test_too_few_pairs_cannot_improve(self):
        old = OLD10[:run.MIN_PAIRS - 1]
        new = [x * 1.2 for x in old]
        v, won = run.verdict(old, new, "higher", 0.1, True)
        self.assertEqual(won, 1.0)
        self.assertEqual(v, "unresolved")

    def test_records_not_interleaved_cannot_improve(self):
        new = [x * 1.2 for x in OLD10]
        v, won = run.verdict(OLD10, new, "higher", 0.1, False)
        self.assertIsNone(won)
        self.assertEqual(v, "unresolved")

    def test_records_not_interleaved_can_regress(self):
        new = [x * 0.8 for x in OLD10]
        self.assertEqual(run.verdict(OLD10, new, "higher", 0.1, False),
                         ("regressed", None))

    def test_small_loss_is_within_bound(self):
        old = [100, 101, 99, 100, 102]
        new = [97, 98, 96, 97, 99]
        self.assertEqual(run.verdict(old, new, "higher", 0.1, True)[0],
                         "within bound")

    def test_small_unpaired_gain_is_within_bound(self):
        new = [x * 1.05 for x in OLD10]
        self.assertEqual(run.verdict(OLD10, new, "higher", 0.1, False)[0],
                         "within bound")

    def test_loss_beyond_bound_is_regressed(self):
        old = [100, 101, 99, 100, 102]
        new = [80, 81, 79, 80, 82]
        self.assertEqual(run.verdict(old, new, "higher", 0.1, True)[0],
                         "regressed")

    def test_noisy_baseline_is_unresolved(self):
        old = [60, 140, 80, 120, 100]
        new = [100, 95, 105, 110, 90]
        self.assertEqual(run.verdict(old, new, "higher", 0.1, True)[0],
                         "unresolved")

    def test_noisy_baseline_beaten_everywhere_is_improved(self):
        old = [60, 140, 80, 120, 100] * 2
        new = [200, 210, 205, 220, 215] * 2
        self.assertEqual(run.verdict(old, new, "higher", 0.1, True)[0],
                         "improved")

    def test_gain_inside_the_spread_is_not_improved(self):
        old = [100, 104, 96, 102, 98, 100, 103, 97, 101, 99]
        new = [x + 3 for x in old]
        v, won = run.verdict(old, new, "higher", 0.1, True)
        self.assertEqual(won, 1.0)
        self.assertEqual(v, "within bound")

    def test_ties_count_for_neither_side(self):
        old = [100] * 10
        new = [100] * 9 + [120]
        v, won = run.verdict(old, new, "higher", 0.1, True)
        self.assertAlmostEqual(won, 0.1)
        self.assertEqual(v, "within bound")


class CompareRecordsTest(unittest.TestCase):
    BENCH = {"workloads": [{"name": "w"}],
             "end_to_end": [{"name": "m", "better": "higher",
                             "bound": 0.1}]}

    def record(self, directory, name, config, values):
        path = os.path.join(directory, name)
        with open(path, "w") as f:
            json.dump({"git_sha": "x", "date": "d", "config": config,
                       "workloads": {"w": {"runs": [{"m": v}
                                                    for v in values]}}}, f)
        return path

    def test_records_with_other_settings_are_refused(self):
        with tempfile.TemporaryDirectory() as d:
            a = self.record(d, "a.json", {"rounds": 5}, [1, 2])
            b = self.record(d, "b.json", {"rounds": 10}, [1, 2])
            with contextlib.redirect_stderr(io.StringIO()):
                self.assertEqual(run.compare_records(a, b, self.BENCH), 2)

    def test_regression_between_records_exits_1(self):
        with tempfile.TemporaryDirectory() as d:
            a = self.record(d, "a.json", {"rounds": 3}, [100, 101, 99])
            b = self.record(d, "b.json", {"rounds": 3}, [80, 81, 79])
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(run.compare_records(a, b, self.BENCH), 1)


if __name__ == "__main__":
    unittest.main()
