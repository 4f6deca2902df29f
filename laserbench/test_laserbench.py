#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 laserbench/test_laserbench.py

Run it from the root of a source checkout. Every workload runs twice
untraced and twice traced at one seed. At a fixed seed the runs must set the
workload up to exactly the same tree: the same shape fingerprint, flushed and
compacted bytes (traced runs), write_amp and space_amp (untraced runs). Each
run must be correct and report exactly the metrics BENCHMARK.json lists for
its mode, in their order and units, and a traced run must cover at least 90%
of its measured wall time with spans. A run too short to complete one window
must fail.
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

SEED = 7
# Long enough for the warm-up and one window of every workload.
SECONDS = 4
TRACED_SHAPE = ("lsm.shape_fingerprint", "lsm.setup_bytes_flushed",
                "lsm.setup_bytes_compacted")
UNTRACED_SHAPE = ("write_amp", "space_amp")


class LaserBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = bench.build()
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        cls.end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        cls.per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        cls.runs = {}
        for workload in bench.WORKLOADS:
            for trace in (False, True):
                cls.runs[workload, trace] = [
                    bench.run_binary(cls.binary, workload, SEED, SECONDS, trace)
                    for _ in range(2)]

    def results(self, workload, trace):
        results = []
        for code, lines in self.runs[workload, trace]:
            self.assertEqual(code, 0, "%s exited with %d" % (workload, code))
            result = json.loads(lines[-1])
            self.assertTrue(result["correct"])
            self.assertGreater(result["attempted"], 0)
            self.assertEqual(result["failed"], 0)
            results.append(result)
        return results

    @staticmethod
    def reported(result):
        return [(name, m["unit"]) for name, m in result["metrics"].items()]

    def test_same_seed_builds_the_same_tree(self):
        for workload in bench.WORKLOADS:
            for trace, names in ((True, TRACED_SHAPE), (False, UNTRACED_SHAPE)):
                with self.subTest(workload=workload, trace=trace):
                    first, second = self.results(workload, trace)
                    for name in names:
                        self.assertEqual(first["metrics"][name]["value"],
                                         second["metrics"][name]["value"], name)

    def test_untraced_runs_report_end_to_end_metrics(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                for result in self.results(workload, False):
                    self.assertEqual(self.reported(result), self.end_to_end)
                    for name, metric in result["metrics"].items():
                        self.assertGreater(metric["value"], 0, name)

    def test_traced_runs_report_layers_and_cover_the_run(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                for result in self.results(workload, True):
                    self.assertEqual(self.reported(result), self.per_layer)
                    coverage = result["metrics"]["trace.span_coverage"]["value"]
                    self.assertGreaterEqual(coverage, 0.9)

    def test_run_without_a_complete_window_fails(self):
        # One tpcc_ch window is an epoch of 4040 ops with 20 CH-Q1 scans,
        # far more than 0.05 s.
        code, lines = bench.run_binary(self.binary, "tpcc_ch", SEED, 0.05, False)
        self.assertNotEqual(code, 0)
        self.assertFalse(json.loads(lines[-1])["correct"])


if __name__ == "__main__":
    unittest.main()
