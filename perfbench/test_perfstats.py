"""Tests of the benchmark's statistics: the percentile rule and span arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import perfstats


def span(name, start, end, parent=-1, req=-1):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "req": req}


class TailPercentileTest(unittest.TestCase):
    def test_p99_with_enough_samples(self):
        xs = list(range(1, 1001))  # 1..1000
        t = perfstats.tail_percentile(xs)
        self.assertEqual(t["percentile"], 99.0)
        self.assertEqual(t["value"], 990)
        self.assertEqual(t["n"], 1000)
        self.assertEqual(t["beyond"], 10)
        self.assertTrue(t["qualified"])

    def test_order_does_not_matter(self):
        xs = list(range(1, 1001))
        self.assertEqual(perfstats.tail_percentile(xs[::-1])["value"], 990)

    def test_falls_back_to_highest_qualifying_percentile(self):
        # 200 samples: p99 would leave 2 beyond; rank 190 leaves 10.
        xs = list(range(1, 201))
        t = perfstats.tail_percentile(xs)
        self.assertEqual(t["value"], 190)
        self.assertEqual(t["beyond"], 10)
        self.assertAlmostEqual(t["percentile"], 95.0)
        self.assertTrue(t["qualified"])

    def test_twenty_samples_report_the_median(self):
        t = perfstats.tail_percentile(list(range(1, 21)))
        self.assertEqual(t["value"], 10)
        self.assertEqual(t["percentile"], 50.0)
        self.assertEqual(t["beyond"], 10)
        self.assertTrue(t["qualified"])

    def test_too_few_samples_report_the_maximum(self):
        for xs in ([3.0, 1.0, 2.0], list(range(19)), list(range(11))):
            t = perfstats.tail_percentile(xs)
            self.assertEqual(t["value"], max(xs))
            self.assertEqual(t["percentile"], 100.0)
            self.assertEqual(t["n"], len(xs))
            self.assertFalse(t["qualified"])

    def test_never_above_target(self):
        t = perfstats.tail_percentile(list(range(100000)), target=99.0)
        self.assertEqual(t["percentile"], 99.0)
        self.assertEqual(t["beyond"], 1000)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            perfstats.tail_percentile([])


class SpanArithmeticTest(unittest.TestCase):
    def setUp(self):
        # pass [0, 10] > compile [1, 8] > solve [2, 5]; query [8, 9.5].
        self.spans = [
            span("pass", 0.0, 10.0),
            span("fdd.compile", 1.0, 8.0, parent=0),
            span("markov.solve", 2.0, 5.0, parent=1),
            span("analysis.query", 8.0, 9.5, parent=0),
        ]

    def test_self_time_subtracts_direct_children_only(self):
        selfs = perfstats.self_times(self.spans)
        self.assertAlmostEqual(selfs[0], 10.0 - 7.0 - 1.5)
        self.assertAlmostEqual(selfs[1], 7.0 - 3.0)
        self.assertAlmostEqual(selfs[2], 3.0)
        self.assertAlmostEqual(selfs[3], 1.5)

    def test_self_times_sum_to_root_duration(self):
        self.assertAlmostEqual(sum(perfstats.self_times(self.spans)), 10.0)

    def test_layer_times_average_over_roots(self):
        second = [dict(s) for s in self.spans]
        for s in second:
            s["start"] += 20.0
            s["end"] += 20.0
            if s["parent"] >= 0:
                s["parent"] += 4
        # The second pass spends twice as long in its solve.
        second[2]["end"] += 3.0
        second[1]["end"] += 3.0
        second[0]["end"] += 3.0
        second[3]["start"] += 3.0
        second[3]["end"] += 3.0
        layers = perfstats.layer_times(self.spans + second)
        self.assertAlmostEqual(layers["markov.solve"], (3.0 + 6.0) / 2)
        self.assertAlmostEqual(layers["fdd.compile"], 4.0)
        self.assertAlmostEqual(layers["analysis.query"], 1.5)

    def test_layer_in_some_roots_only(self):
        spans = self.spans + [span("setup", 30.0, 31.0),
                              span("routing.build", 30.0, 30.5, parent=4)]
        layers = perfstats.layer_times(spans)
        self.assertAlmostEqual(layers["routing.build"], 0.5)
        self.assertAlmostEqual(layers["setup"], 0.5)

    def test_coverage(self):
        self.assertAlmostEqual(perfstats.coverage(self.spans, {"pass"}), 0.85)
        self.assertAlmostEqual(
            perfstats.coverage(self.spans, {"pass", "fdd.compile"}), 3 / 7)
        self.assertIsNone(perfstats.coverage(self.spans, {"cycle"}))

    def test_coverage_leaves_out_excluded_children(self):
        # The query is left out of the pass: 7 of the remaining 8.5 s.
        self.assertAlmostEqual(
            perfstats.coverage(self.spans, {"pass"}, {"analysis.query"}),
            7.0 / 8.5)
        spans = self.spans + [span("trace.counters", 9.5, 10.0, parent=0)]
        self.assertAlmostEqual(perfstats.coverage(spans, {"pass"}), 0.9)
        self.assertAlmostEqual(
            perfstats.coverage(spans, {"pass"}, {"trace.counters"}),
            8.5 / 9.5)


if __name__ == "__main__":
    unittest.main()
