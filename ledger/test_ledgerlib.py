"""Tests of the ledger's helpers.

    python3 -m unittest discover -s ledger -p 'test_*.py'
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ledgerlib as L  # noqa: E402

ROOT_BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "..", "BENCHMARK.json")


def spec():
    return {
        "command": ["python3", "ledger/run.py"],
        "paths": ["ledger"],
        "run_seconds": 10,
        "workloads": [{"name": "a", "why": "one"}, {"name": "b", "why": "two"}],
        "end_to_end": [
            {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        ],
        "per_layer": [{"name": "x.ms", "unit": "ms", "better": "lower"}],
    }


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        v = list(range(1, 101))
        self.assertEqual(L.percentile(v, 0.5), 50)
        self.assertEqual(L.percentile(v, 0.95), 95)
        self.assertEqual(L.percentile(v, 1.0), 100)
        self.assertEqual(L.percentile([7], 0.95), 7)
        self.assertEqual(L.percentile([3, 1, 2], 0.0), 1)

    def test_order_does_not_matter(self):
        self.assertEqual(L.percentile([5, 1, 4, 2, 3], 0.6), 3)

    def test_samples_beyond(self):
        self.assertEqual(L.samples_beyond(100, 0.95), 5)
        self.assertEqual(L.samples_beyond(200, 0.95), 10)
        self.assertEqual(L.samples_beyond(1, 0.5), 0)

    def test_min_samples_has_ten_beyond(self):
        n = L.min_samples(0.95)
        self.assertEqual(n, 200)
        self.assertGreaterEqual(L.samples_beyond(n, 0.95), 10)
        self.assertLess(L.samples_beyond(n - 1, 0.95), 10)
        self.assertEqual(L.min_samples(0.5), 20)

    def test_tail_refused_without_ten_beyond(self):
        with self.assertRaises(L.LedgerError):
            L.tail_percentile(list(range(199)), 0.95)
        self.assertEqual(L.tail_percentile(list(range(1, 201)), 0.95), 190)

    def test_empty_and_bad_rank(self):
        with self.assertRaises(L.LedgerError):
            L.percentile([], 0.5)
        with self.assertRaises(L.LedgerError):
            L.percentile([1], 1.5)


class Failures(unittest.TestCase):
    def test_counts_and_ratio(self):
        t = L.Tally()
        t.ok(8)
        t.fail("status 500")
        t.fail("status 500")
        self.assertEqual((t.attempted, t.failed), (10, 2))
        self.assertEqual(t.reasons, {"status 500": 2})
        self.assertAlmostEqual(t.ratio(), 0.2)

    def test_add_from_load_generator(self):
        t = L.Tally()
        t.ok()
        t.add(99, 1, {"body digest mismatch": 1})
        self.assertEqual((t.attempted, t.failed), (100, 1))
        self.assertEqual(t.reasons["body digest mismatch"], 1)
        with self.assertRaises(L.LedgerError):
            t.add(1, 2)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(L.LedgerError):
            L.Tally().ratio()

    def test_result_line(self):
        t = L.Tally()
        t.ok(3)
        t.fail("x")
        line = json.loads(L.result_line(False, t, {"lat_ms": 1.5},
                                        {"lat_ms": "ms"}))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual((line["attempted"], line["failed"]), (4, 1))
        self.assertEqual(line["metrics"]["lat_ms"], {"value": 1.5, "unit": "ms"})
        with self.assertRaises(L.LedgerError):
            L.result_line(True, t, {"other": 1.0}, {"lat_ms": "ms"})


class BenchmarkJson(unittest.TestCase):
    def test_round_trip(self):
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "BENCHMARK.json")
            L.write_benchmark(spec(), p)
            self.assertEqual(L.read_benchmark(p), spec())

    def test_repository_file_is_valid(self):
        s = L.read_benchmark(ROOT_BENCHMARK)
        self.assertEqual(L.validate_benchmark(s), [])

    def test_rejections(self):
        def broken(f):
            s = spec()
            f(s)
            return L.validate_benchmark(s)

        self.assertTrue(broken(lambda s: s.update(extra=1)))
        self.assertTrue(broken(lambda s: s.update(run_seconds=61)))
        self.assertTrue(broken(lambda s: s.update(paths=["/abs"])))
        self.assertTrue(broken(lambda s: s.update(paths=["../out"])))
        self.assertTrue(broken(lambda s: s["workloads"].pop()))
        self.assertTrue(broken(lambda s: s["end_to_end"][0].update(bound=0.3)))
        self.assertTrue(broken(lambda s: s["end_to_end"].pop()))  # no setup_s
        self.assertTrue(broken(lambda s: s["per_layer"][0].update(unit="m s")))
        self.assertTrue(broken(lambda s: s["per_layer"].append(
            {"name": "lat_ms", "unit": "ms", "better": "lower"})))
        self.assertTrue(broken(lambda s: s["workloads"][0].update(why="a\nb")))
        with tempfile.TemporaryDirectory() as d:
            with self.assertRaises(L.LedgerError):
                s = spec()
                s["run_seconds"] = 0
                L.write_benchmark(s, os.path.join(d, "B.json"))


class Fingerprints(unittest.TestCase):
    def test_refuses_different_inputs(self):
        a = {"xmark.xml": {"bytes": 1, "md5": "aa"}, "guards": {"bytes": 2, "md5": "bb"}}
        L.compare_fingerprints(a, json.loads(json.dumps(a)))
        b = dict(a, guards={"bytes": 2, "md5": "cc"})
        with self.assertRaises(L.LedgerError) as e:
            L.compare_fingerprints(a, b)
        self.assertIn("guards", str(e.exception))


if __name__ == "__main__":
    unittest.main()
