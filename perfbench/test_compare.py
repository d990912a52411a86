"""Verdicts of compare.py on hand-made run sets."""

import unittest

from compare import spread, verdict


class Verdicts(unittest.TestCase):
    def test_win_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_spread(self):
        a = [10.0, 10.1, 9.9, 10.2, 10.0, 9.8, 10.1, 10.0, 9.9, 10.0]
        b = [x - 1.0 for x in a]
        self.assertEqual(verdict(a, b, "lower", 0.1, exact=False), "win")
        self.assertEqual(verdict(a, [x + 1.0 for x in a], "higher", 0.1, exact=False), "win")

    def test_small_changes_are_the_same(self):
        a = [10.0, 10.1, 9.9, 10.2, 10.0]
        b = [10.1, 10.0, 10.0, 10.1, 10.2]
        self.assertEqual(verdict(a, b, "lower", 0.1, exact=False), "same")

    def test_regression_beyond_the_bound(self):
        a = [10.0, 10.1, 9.9, 10.2, 10.0]
        b = [x * 1.2 for x in a]
        self.assertEqual(verdict(a, b, "lower", 0.1, exact=False), "regressed")
        self.assertEqual(verdict(a, [x / 1.2 for x in a], "higher", 0.1, exact=False), "regressed")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        a = [5.0, 15.0, 10.0, 7.0, 13.0]
        b = [x * 1.3 for x in a]
        self.assertGreater(spread(a), 0.1)
        self.assertEqual(verdict(a, b, "lower", 0.1, exact=False), "unresolved")

    def test_wide_spread_still_wins_when_every_run_is_better(self):
        a = [50.0, 70.0, 60.0, 55.0, 65.0]
        b = [x - 30.0 for x in a]
        self.assertEqual(verdict(a, b, "lower", 0.1, exact=False), "win")

    def test_per_layer_metrics_have_no_regression_verdict(self):
        a = [10.0, 10.1, 9.9]
        self.assertEqual(verdict(a, [20.0, 20.2, 19.8], "lower", None, exact=False), "-")

    def test_clock_free_fields_must_repeat(self):
        self.assertEqual(verdict([7, 7, 7], [7, 7], "lower", 0.0, exact=True), "same")
        self.assertEqual(verdict([7, 7, 7], [6, 6], "lower", 0.0, exact=True), "changed")
        self.assertEqual(verdict([7, 8, 7], [7, 7], "lower", 0.0, exact=True), "varies")


if __name__ == "__main__":
    unittest.main()
