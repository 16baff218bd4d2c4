"""Tests of the benchmark's own arithmetic.

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchstats as bs  # noqa: E402


def span(name, start, end, parent=-1):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "id": 0}


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(bs.nearest_rank(values, 50), 50)
        self.assertEqual(bs.nearest_rank(values, 90), 90)
        self.assertEqual(bs.nearest_rank(values, 99), 99)
        self.assertEqual(bs.nearest_rank([7.0], 90), 7.0)
        # Two programs per pass: p50 is the smaller, p90 the larger.
        self.assertEqual(bs.nearest_rank([3.0, 1.0], 50), 1.0)
        self.assertEqual(bs.nearest_rank([3.0, 1.0], 90), 3.0)

    def test_samples_beyond(self):
        self.assertEqual(bs.beyond(100, 90), 10)
        self.assertEqual(bs.beyond(99, 90), 9)
        self.assertEqual(bs.beyond(1000, 99), 10)

    def test_highest_supported_percentile(self):
        # Exactly ten beyond p90 at n=100, nine at n=99.
        self.assertEqual(bs.supported_percentile(100), 90)
        self.assertEqual(bs.supported_percentile(99), 50)
        self.assertEqual(bs.supported_percentile(1000), 99)
        self.assertEqual(bs.supported_percentile(10000), 99.9)
        self.assertIsNone(bs.supported_percentile(19))
        self.assertEqual(bs.supported_percentile(20), 50)


class SelfTime(unittest.TestCase):
    def test_leaf_self_equals_duration(self):
        t = bs.self_times([span("a", 1.0, 3.5)])
        self.assertAlmostEqual(t["a"][0], 2.5)
        self.assertAlmostEqual(t["a"][1], 2.5)

    def test_overlapping_children_are_counted_once(self):
        spans = [
            span("root", 0.0, 10.0),
            span("x", 1.0, 4.0, 0),
            span("y", 3.0, 6.0, 0),   # overlaps x on [3, 4]
            span("z", 8.0, 12.0, 0),  # sticks out past the root
        ]
        t = bs.self_times(spans)
        # Covered: [1, 6] + [8, 10] = 7 of the root's 10 seconds.
        self.assertAlmostEqual(t["root"][1], 3.0)
        self.assertAlmostEqual(t["root"][0], 10.0)

    def test_only_direct_children_subtract(self):
        spans = [
            span("root", 0.0, 10.0),
            span("child", 2.0, 6.0, 0),
            span("grandchild", 3.0, 5.0, 1),
        ]
        t = bs.self_times(spans)
        self.assertAlmostEqual(t["root"][1], 6.0)
        self.assertAlmostEqual(t["child"][1], 2.0)
        self.assertAlmostEqual(t["grandchild"][1], 2.0)

    def test_names_aggregate(self):
        spans = [span("p", 0.0, 1.0), span("p", 2.0, 4.0)]
        self.assertAlmostEqual(bs.self_times(spans)["p"][0], 3.0)


class PairWins(unittest.TestCase):
    def test_lower_is_better(self):
        parent = [10.0, 10.0, 10.0, 10.0]
        change = [9.0, 11.0, 10.0, 8.0]
        self.assertEqual(bs.pair_wins(parent, change, "lower"), (2, 1, 1))

    def test_higher_is_better(self):
        self.assertEqual(bs.pair_wins([1.0, 2.0], [2.0, 2.0], "higher"),
                         (1, 0, 1))

    def test_unequal_pairs_rejected(self):
        with self.assertRaises(ValueError):
            bs.pair_wins([1.0], [1.0, 2.0], "lower")


class FailRatio(unittest.TestCase):
    def test_refusals_and_wrong_verdicts_count(self):
        self.assertEqual(bs.fail_ratio(attempted=10, wrong=1, refused=2),
                         0.3)
        self.assertEqual(
            bs.fail_ratio(attempted=8, wrong=1, unknown=1, errors=1,
                          refused=1), 0.5)
        self.assertEqual(bs.fail_ratio(attempted=5), 0.0)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            bs.fail_ratio(attempted=0)


class Compare(unittest.TestCase):
    def test_quartiles_match_the_statistics_module(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(bs.quartiles(values), (q1, q2, q3))
        self.assertAlmostEqual(bs.spread(values), (q3 - q1) / q2)

    def test_regression_beyond_bound(self):
        parent = [10.0, 10.1, 9.9, 10.0, 10.05]
        change = [v * 1.2 for v in parent]
        v = bs.compare_metric(parent, change, "lower", 0.1)
        self.assertEqual(v["status"], "regression")
        self.assertAlmostEqual(v["worse_by"], 0.2)
        self.assertEqual(v["parent_wins"], 5)

    def test_unresolved_when_parent_spread_exceeds_bound(self):
        parent = [5.0, 10.0, 15.0, 8.0, 12.0]
        change = [10.0, 9.0, 11.0, 10.0, 10.0]
        v = bs.compare_metric(parent, change, "lower", 0.1)
        self.assertEqual(v["status"], "unresolved")

    def test_gain_needs_nine_tenths_of_pairs(self):
        parent = [10.0 + 0.01 * i for i in range(10)]
        change = [8.0] * 9 + [11.0]
        v = bs.compare_metric(parent, change, "lower", 0.1)
        self.assertEqual((v["change_wins"], v["parent_wins"]), (9, 1))
        self.assertEqual(v["status"], "gain")
        change = [8.0] * 8 + [11.0, 11.0]
        self.assertEqual(
            bs.compare_metric(parent, change, "lower", 0.1)["status"],
            "no change")

    def test_higher_is_better_direction(self):
        parent = [100.0] * 5
        change = [70.0] * 5
        v = bs.compare_metric(parent, change, "higher", 0.25)
        self.assertEqual(v["status"], "regression")


if __name__ == "__main__":
    unittest.main()
