"""Tests for the benchmark's percentile and self-time arithmetic.

Run from the repository root:  python3 -m unittest perfbench/test_stats.py
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_on_raw_samples(self):
        samples = list(range(1, 101))  # 1..100
        p50 = stats.percentile(samples, 0.5)
        self.assertEqual(p50["value"], 50)
        self.assertEqual(p50["beyond"], 50)
        p99 = stats.percentile(samples, 0.99)
        self.assertEqual(p99["value"], 99)
        self.assertEqual(p99["beyond"], 1)
        self.assertEqual(stats.percentile(samples, 1.0)["value"], 100)

    def test_order_of_input_does_not_matter(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 0.5)["value"], 3)

    def test_value_is_a_sample_not_an_interpolation_or_bucket_edge(self):
        samples = [0.1234, 7.5, 7.6, 100.25]
        p = stats.percentile(samples, 0.75)
        self.assertIn(p["value"], samples)
        self.assertEqual(p["value"], 7.6)

    def test_support_needs_ten_samples_beyond(self):
        p = stats.percentile(list(range(999)), 0.99)
        self.assertEqual(p["n"], 999)
        self.assertEqual(p["beyond"], 9)
        self.assertFalse(p["supported"])
        p = stats.percentile(list(range(1000)), 0.99)
        self.assertEqual(p["beyond"], 10)
        self.assertTrue(p["supported"])
        p = stats.percentile(list(range(1024)), 0.99)
        self.assertEqual(p["beyond"], 10)
        self.assertTrue(p["supported"])

    def test_empty_is_unsupported_zero(self):
        p = stats.percentile([], 0.5)
        self.assertEqual((p["value"], p["n"], p["supported"]), (0.0, 0, False))

    def test_rejects_out_of_range_quantile(self):
        with self.assertRaises(ValueError):
            stats.percentile([1, 2], 0)
        with self.assertRaises(ValueError):
            stats.percentile([1, 2], 1.5)

    def test_segmented_is_median_of_segment_percentiles(self):
        segments = [list(range(1000)), list(range(1000, 2000)),
                    list(range(5000, 6000))]
        p = stats.segmented_percentile(segments, 0.5)
        self.assertEqual(p["value"], 1499)  # segment medians 499, 1499, 5499
        self.assertEqual(p["n"], 3000)
        self.assertEqual(p["segments"], 3)
        p99 = stats.segmented_percentile(segments, 0.99)
        self.assertEqual(p99["value"], 1989)
        self.assertEqual(p99["beyond"], 10)
        self.assertTrue(p99["supported"])

    def test_segmented_support_needs_every_segment(self):
        p = stats.segmented_percentile([list(range(1000)), list(range(999))],
                                       0.99)
        self.assertEqual(p["beyond"], 9)
        self.assertFalse(p["supported"])
        self.assertFalse(stats.segmented_percentile([], 0.5)["supported"])


class SelfTimeTest(unittest.TestCase):
    def test_covered_merges_overlaps_and_clips(self):
        self.assertEqual(stats.covered_ns(0, 100, []), 0)
        self.assertEqual(stats.covered_ns(0, 100, [(10, 20), (30, 40)]), 20)
        self.assertEqual(stats.covered_ns(0, 100, [(10, 30), (20, 40)]), 30)
        self.assertEqual(stats.covered_ns(0, 100, [(-50, 10), (90, 150)]), 20)
        self.assertEqual(stats.covered_ns(0, 100, [(100, 120)]), 0)
        self.assertEqual(stats.covered_ns(0, 100, [(10, 20), (10, 20)]), 10)

    def test_self_time_subtracts_children_only(self):
        # root [0,100) with children a [10,40) and b [50,60); a has a
        # grandchild [15,25) that must not be subtracted from root.
        spans = [
            (0, -1, "root", 7, 0, 100),
            (1, 0, "a", 7, 10, 40),
            (2, 1, "g", 7, 15, 25),
            (3, 0, "b", 7, 50, 60),
        ]
        t = stats.span_totals(spans)
        self.assertEqual(t["root"]["self_ns"], 100 - 30 - 10)
        self.assertEqual(t["root"]["dur_ns"], 100)
        self.assertEqual(t["a"]["self_ns"], 30 - 10)
        self.assertEqual(t["g"]["self_ns"], 10)
        self.assertEqual(t["b"]["self_ns"], 10)
        total_self = sum(v["self_ns"] for v in t.values())
        self.assertEqual(total_self, t["root"]["dur_ns"])

    def test_totals_sum_over_spans_of_one_name(self):
        spans = [
            (0, -1, "req", 1, 0, 10),
            (1, 0, "kernel", 1, 2, 8),
            (2, -1, "req", 2, 20, 40),
            (3, 2, "kernel", 2, 25, 35),
        ]
        t = stats.span_totals(spans)
        self.assertEqual(t["req"]["count"], 2)
        self.assertEqual(t["req"]["self_ns"], (10 - 6) + (20 - 10))
        self.assertEqual(t["kernel"]["self_ns"], 16)

    def test_load_spans_round_trip(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "spans.tsv")
            with open(path, "w") as f:
                f.write("0\t-1\trequest\t42\t100\t200\n")
                f.write("1\t0\tserve.call\t42\t120\t180\n")
            spans = stats.load_spans(path)
        self.assertEqual(spans[1], (1, 0, "serve.call", 42, 120, 180))
        self.assertEqual(stats.span_totals(spans)["request"]["self_ns"], 40)


if __name__ == "__main__":
    unittest.main()
