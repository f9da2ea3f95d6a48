#!/usr/bin/env python3
"""Tests of the benchmark itself: its arithmetic, its correctness check
and a tiny-size run of every workload.

    python3 perfbench/test_perfbench.py

The tiny runs build the workload program first (into .bench_build/), like run.py.
"""

import copy
import json
import math
import statistics
import sys
import unittest

sys.dont_write_bytecode = True

import perfstats as ps  # noqa: E402
import run  # noqa: E402


class Arithmetic(unittest.TestCase):
    def test_phone_hour_throughput(self):
        # 8,000 phones for 600 simulated seconds in 2.5 host seconds.
        self.assertAlmostEqual(ps.throughput(8000 * 600 / 3600.0, 2.5),
                               1333.3333333 / 2.5)
        with self.assertRaises(ValueError):
            ps.throughput(10.0, 0.0)

    def test_crowd_setup_subtraction(self):
        self.assertAlmostEqual(ps.run_phase(8.5, 3.7), 4.8)
        with self.assertRaises(ValueError):
            ps.run_phase(3.0, 3.7)  # a call shorter than its set-up
        records = [
            {"rec": "setup", "s": 1.0}, {"rec": "setup", "s": 3.0},
            {"rec": "setup", "s": 2.0},
            {"rec": "run", "threads": 1, "s": 12.0, "phone_h": 100.0,
             "events": 1000, "includes_setup": 1},
            {"rec": "run", "threads": 4, "s": 7.0, "phone_h": 100.0,
             "events": 1000, "includes_setup": 1},
            {"rec": "process", "peak_rss_bytes": 3 * ps.MB, "phones": 10},
        ]
        metrics, extra = run.end_to_end(records, 4)
        self.assertAlmostEqual(metrics["phone_h_per_s.t1"].value, 10.0)
        self.assertAlmostEqual(extra["phone_h_per_s.t4"], 20.0)
        self.assertAlmostEqual(metrics["setup_s"].value, 2.0)
        self.assertEqual(metrics["setup_s"].samples, 3)
        self.assertAlmostEqual(metrics["peak_rss_mb"].value, 3.0)
        self.assertAlmostEqual(extra["speedup.t4_over_t1"], 2.0)
        self.assertAlmostEqual(extra["events_per_s.t1"], 100.0)

    def test_city_slices_are_not_subtracted(self):
        records = [{"rec": "setup", "s": 5.0}] + [
            {"rec": "run", "threads": t, "s": s, "phone_h": 10.0,
             "events": 1, "includes_setup": 0}
            for t, s in ((1, 1.0), (2, 0.5), (1, 2.0), (2, 0.25),
                         (1, 4.0), (2, 0.5))] + [
            {"rec": "process", "peak_rss_bytes": ps.MB, "phones": 1}]
        metrics, extra = run.end_to_end(records, 2)
        self.assertAlmostEqual(metrics["phone_h_per_s.t1"].value, 5.0)
        self.assertEqual(metrics["phone_h_per_s.t1"].samples, 3)
        self.assertAlmostEqual(extra["phone_h_per_s.t2"], 20.0)

    def test_nearest_rank_percentiles(self):
        values = list(range(1, 101))
        self.assertEqual(ps.nearest_rank(values, 99), (99, 100))
        self.assertEqual(ps.nearest_rank(values, 50), (50, 100))
        self.assertEqual(ps.nearest_rank(values, 100), (100, 100))
        self.assertEqual(ps.nearest_rank([3.0, 1.0, 2.0], 50), (2.0, 3))
        # With fewer than 100 samples p99 is the largest one.
        self.assertEqual(ps.nearest_rank([5, 1, 9, 7], 99), (9, 4))
        self.assertEqual(ps.nearest_rank([7], 1), (7, 1))
        with self.assertRaises(ValueError):
            ps.nearest_rank([], 50)
        with self.assertRaises(ValueError):
            ps.nearest_rank([1], 0)

    def test_quartiles_match_statistics(self):
        values = [9.0, 1.0, 4.0, 7.0, 3.0, 8.0, 2.0, 6.0, 5.0, 10.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(ps.quartiles(values), (q1, q2, q3))
        self.assertAlmostEqual(ps.spread(values), (q3 - q1) / q2)
        self.assertEqual(ps.quartiles([4.0]), (4.0, 4.0, 4.0))
        self.assertEqual(ps.spread([4.0, 4.0]), 0.0)

    def test_imbalance_and_ratios(self):
        self.assertAlmostEqual(ps.imbalance([1, 1, 2]), 1.5)
        self.assertAlmostEqual(ps.imbalance([5, 5, 5, 5]), 1.0)
        with self.assertRaises(ValueError):
            ps.imbalance([0, 0])
        self.assertEqual(ps.ratio(3, 4), 0.75)
        self.assertEqual(ps.ratio(3, 0), 0.0)
        self.assertAlmostEqual(
            ps.paired_overhead([1.1, 2.0, 3.3], [1.0, 2.0, 3.0]), 0.1)
        with self.assertRaises(ValueError):
            ps.paired_overhead([1.0], [])

    def test_per_layer_ratios(self):
        layer = {
            "rec": "layer", "events": 2000, "phone_h": 4.0, "t1_s": 3.0,
            "t1_events": 1000, "shard_events": [10, 30], "windows": 10,
            "windowed_events": 500, "windowed_ns": 1000, "drain_ns": 100,
            "execute_ns": 700, "barrier_wait_ns": 2e9, "workers": 2,
            "barrier_wait_us": [float(i) for i in range(1, 201)],
            "slice_s": [0.5, 0.1, 0.3], "traced_s": [2.2, 2.4],
            "untraced_s": [2.0, 2.0], "subtract_setup": 1,
            "sample_phone_h": 3.0,
            "cross_posted": 5, "cross_delivered": 5, "min_slack_us": 50000,
            "arena_reserved_bytes": ps.MB, "arena_objects": 7,
            "rss_before_snapshot_bytes": 5 * ps.MB, "series": 40,
            "server_delivered": 9, "server_late": 1,
            "counters": {"ue.matches": 3, "d2d.discovery_scans": 12,
                         "feedback.acknowledged": 8, "feedback.tracked": 10,
                         "relay.forwarded_received": 6,
                         "relay.forwarded_rejected": 2}}
        records = [{"rec": "setup", "s": 1.0}, layer,
                   {"rec": "process", "peak_rss_bytes": 0, "phones": 20}]
        m = run.per_layer(records)
        self.assertEqual(set(m), set(run.PER_LAYER_UNITS))
        self.assertAlmostEqual(m["sim.events_per_phone_h"].value, 500.0)
        self.assertAlmostEqual(m["sim.ns_per_event.t1"].value, 2e6)
        self.assertAlmostEqual(m["sim.shard_events_imbalance"].value, 1.5)
        self.assertAlmostEqual(m["engine.events_per_window"].value, 50.0)
        self.assertAlmostEqual(m["engine.window_utilization"].value, 0.4)
        self.assertEqual(m["engine.barrier_wait_p99_us"].value, 198.0)
        self.assertEqual(m["engine.barrier_wait_p99_us"].samples, 200)
        self.assertEqual(m["engine.slice_s.p50"].value, 0.3)
        self.assertEqual(m["engine.slice_s.p99"].samples, 3)
        self.assertAlmostEqual(m["engine.trace_overhead_frac"].value, 0.3)
        self.assertAlmostEqual(m["engine.phone_h_per_s.tN"].value, 3.0)
        self.assertEqual(m["engine.phone_h_per_s.tN"].samples, 2)
        self.assertAlmostEqual(m["scenario.off_arena_mb"].value, 4.0)
        self.assertAlmostEqual(m["metrics.series_per_phone"].value, 2.0)
        self.assertAlmostEqual(m["ue.match_per_scan"].value, 0.25)
        self.assertAlmostEqual(m["feedback.ack_ratio"].value, 0.8)
        self.assertAlmostEqual(m["relay.accept_ratio"].value, 0.75)
        self.assertEqual(m["rrc.transitions"].value, 0)


def check(threads, out, at_s=600, traced=0):
    return {"rec": "check", "threads": threads, "traced": traced,
            "at_s": at_s, "out": dict(out)}


class CorrectnessCheck(unittest.TestCase):
    OUT = {"total_l3": 10, "peak_l3_per_10s": 3, "heartbeats_delivered": 7,
           "forwarded_via_d2d": 4, "fallbacks": 1, "radio_uah": 1000.0}
    PROCESS = {"rec": "process", "peak_rss_bytes": 1, "phones": 1}

    def verdict(self, records, reference, error=None):
        return run.check_records(records + [self.PROCESS], reference, error)

    def test_matching_runs_pass(self):
        ref = {"600": dict(self.OUT)}
        recs = [check(1, self.OUT), check(4, self.OUT),
                check(4, self.OUT, traced=1)]
        self.assertEqual(self.verdict(recs, ref)[:2], (3, 0))

    def test_altered_reference_fails(self):
        for field in run.OUTPUT_FIELDS:
            ref = {"600": dict(self.OUT)}
            ref["600"][field] += 1
            attempted, failed, messages = self.verdict(
                [check(1, self.OUT)], ref)
            self.assertEqual((attempted, failed), (1, 1), field)
            self.assertIn(field, messages[0])

    def test_radio_charge_relative_bound(self):
        ref = {"600": dict(self.OUT)}
        near = dict(self.OUT, radio_uah=1000.0 * (1 + run.RADIO_REL_BOUND / 2))
        far = dict(self.OUT, radio_uah=1000.0 * (1 + run.RADIO_REL_BOUND * 2))
        self.assertEqual(self.verdict([check(1, near)], ref)[1], 0)
        self.assertEqual(self.verdict([check(1, far)], ref)[1], 1)

    def test_thread_counts_must_agree_exactly(self):
        ref = {"600": dict(self.OUT)}
        near = dict(self.OUT, radio_uah=1000.0 * (1 + run.RADIO_REL_BOUND / 2))
        _, failed, messages = self.verdict(
            [check(1, self.OUT), check(4, near)], ref)
        self.assertEqual(failed, 1)
        self.assertIn("differs from the first run", messages[0])

    def test_missing_reference_and_crash_fail(self):
        self.assertEqual(self.verdict([check(1, self.OUT)], {})[1], 1)
        attempted, failed, _ = self.verdict([check(1, self.OUT)],
                                            {"600": dict(self.OUT)},
                                            error="exit code 134")
        self.assertEqual((attempted, failed), (2, 1))

    def test_span_coverage(self):
        ref = {"600": dict(self.OUT)}
        good = {"rec": "spans", "wall_s": 10.0,
                "spans": [["build", 2.0], ["slice", 7.99]]}
        bad = {"rec": "spans", "wall_s": 10.0,
               "spans": [["build", 2.0], ["slice", 5.0]]}
        self.assertEqual(self.verdict([check(1, self.OUT), good], ref)[1], 0)
        self.assertEqual(self.verdict([check(1, self.OUT), bad], ref)[1], 1)


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_and_units_match(self):
        path = run.ROOT / "BENCHMARK.json"
        if not path.exists():
            self.skipTest("no BENCHMARK.json beside the benchmark")
        spec = json.loads(path.read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER_UNITS)
        self.assertLessEqual({w["name"] for w in spec["workloads"]},
                             set(run.WORKLOADS))


class TinyRuns(unittest.TestCase):
    """Every workload at tiny size: correct against the stored reference,
    and refused once a reference value is altered."""

    @classmethod
    def setUpClass(cls):
        run.build()
        cls.altered_path = run.BUILD_DIR / "altered_reference.json"

    def altered_reference(self, workload, seed):
        reference = copy.deepcopy(run.load_reference(run.REFERENCE))
        points = reference[workload]["tiny"][str(run.world_seed(seed))]
        for out in points.values():
            out["heartbeats_delivered"] += 1
        self.altered_path.write_text(json.dumps(reference))
        return self.altered_path

    def test_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result, lines = run.run_benchmark(workload, 3, 0, 0, "tiny")
                self.assertTrue(result["correct"], "\n".join(lines))
                self.assertEqual(set(result["metrics"]),
                                 set(run.END_TO_END_UNITS))
                for m in result["metrics"].values():
                    self.assertTrue(math.isfinite(m["value"]))
                    self.assertGreater(m["value"], 0)
                bad, _ = run.run_benchmark(
                    workload, 3, 0, 0, "tiny",
                    self.altered_reference(workload, 3))
                self.assertFalse(bad["correct"])
                self.assertGreaterEqual(bad["failed"], 1)

    def test_traced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result, lines = run.run_benchmark(workload, 5, 0, 1, "tiny")
                self.assertTrue(result["correct"], "\n".join(lines))
                self.assertEqual(set(result["metrics"]),
                                 set(run.PER_LAYER_UNITS))
                bad, _ = run.run_benchmark(
                    workload, 5, 0, 1, "tiny",
                    self.altered_reference(workload, 5))
                self.assertFalse(bad["correct"])


if __name__ == "__main__":
    unittest.main()
