"""Tests of the verdicts of bench_pairs.py.

    python3 -m unittest discover -s tools -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_pairs import verdict  # noqa: E402


class VerdictTest(unittest.TestCase):
    # the server heap_mb series of the broadcast-baselines change: a wide
    # base spread, and every run of the change below every run of the base
    BASE = [187.2, 190.1, 195.4, 199.0, 203.3, 208.8, 212.5, 217.0, 220.6, 224.0]
    WORK = [144.8, 145.2, 145.9, 146.3, 146.8, 147.4, 148.0, 148.6, 149.1, 149.5]

    def test_runs_all_better_resolve_a_wide_base_spread(self):
        self.assertEqual(verdict(self.BASE, self.WORK, False, 0.05), "ok")
        # the same with higher-is-better metrics
        self.assertEqual(verdict([-x for x in self.BASE], [-x for x in self.WORK], True, 0.05), "ok")

    def test_overlapping_runs_under_a_wide_base_spread_stay_unresolved(self):
        work = self.WORK[:9] + [190.0]  # one run of the change is not better than the best base run
        self.assertEqual(verdict(self.BASE, work, False, 0.05), "unresolved")

    def test_worse_median_is_worse(self):
        self.assertEqual(verdict(self.WORK, self.BASE, False, 0.25), "worse")

    def test_narrow_base_spread_is_ok(self):
        self.assertEqual(verdict([100, 101, 102, 103], [101, 102, 103, 104], False, 0.25), "ok")


if __name__ == "__main__":
    unittest.main()
