"""Tests of the benchmark's own logic: the steadiness arithmetic, the
trace analysis, the result-line shaping and the BENCHMARK.json contract.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import re
import statistics
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import steady  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class SpreadTest(unittest.TestCase):
    def test_spread_is_iqr_over_median(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(steady.spread(values), (q3 - q1) / q2)

    def test_zero_median(self):
        self.assertEqual(steady.spread([0.0, 0.0, 0.0]), 0.0)
        self.assertEqual(steady.spread([-1.0, 0.0, 0.0, 1.0]), float("inf"))

    def test_judge_flags_every_wide_metric_setup_too(self):
        samples = {"setup_s": [1.0, 5.0, 9.0, 2.0],
                   "evals_per_s": [100.0, 100.0, 101.0, 99.0],
                   "latency_p50_s": [1.0, 2.0, 3.0, 4.0]}
        bounds = {"setup_s": 0.25, "evals_per_s": 0.1, "latency_p50_s": 0.15}
        rows = {r[0]: r for r in steady.judge(samples, bounds)}
        self.assertFalse(rows["setup_s"][4])
        self.assertTrue(rows["evals_per_s"][4])
        self.assertFalse(rows["latency_p50_s"][4])
        self.assertAlmostEqual(rows["evals_per_s"][3], 0.1 / 3)

    def test_judge_fails_missing_samples(self):
        rows = steady.judge({}, {"evals_per_s": 0.1})
        self.assertFalse(rows[0][4])


def span(tid, ts, dur, cat="exec", name="cell"):
    return {"ph": "X", "tid": tid, "ts": ts, "dur": dur, "cat": cat,
            "name": name}


class TraceAnalysisTest(unittest.TestCase):
    def test_broker_split_matches_spans_by_request_id(self):
        events = [span(1, 1000, 50, "service", "admit"),
                  span(2, 1200, 300, "service", "execute"),
                  span(2, 9000, 100, "service", "execute"),  # no latency
                  {"ph": "i", "tid": 3, "ts": 0, "cat": "client",
                   "name": "request", "args": {"id": "c1", "seconds": 0.01}},
                  {"ph": "i", "tid": 3, "ts": 0, "cat": "client",
                   "name": "request", "args": {"id": "c9", "seconds": 0.02}}]
        for event, rid in zip(events[:3], ("c1", "c1", "c2")):
            event["args"] = {"id": rid}
        broker, wire = run.broker_split(events)
        self.assertEqual(len(broker), 1)  # c9 has no broker spans
        self.assertAlmostEqual(broker[0], 500e-6)
        self.assertAlmostEqual(wire[0], 0.01 - 500e-6)

    def test_self_time_subtracts_direct_children(self):
        events = [span(1, 0, 100, "exec", "pass"),
                  span(1, 10, 30, "model", "probe"),
                  span(1, 15, 10, "core", "inner"),
                  span(1, 50, 20, "model", "probe"),
                  span(2, 0, 40, "sched", "unit")]
        totals = run.self_times(events)
        self.assertAlmostEqual(totals["exec"][1], 50e-6)
        self.assertAlmostEqual(totals["model"][1], 40e-6)
        self.assertAlmostEqual(totals["core"][1], 10e-6)
        self.assertAlmostEqual(totals["sched"][1], 40e-6)
        self.assertEqual(totals["model"][0], 2)

    def test_pass_tail_starts_when_first_thread_runs_dry(self):
        events = [span(1, 0, 1000, "exec", "pass"),
                  span(2, 0, 400), span(2, 400, 500),
                  span(3, 0, 700),
                  span(4, 2000, 10)]  # outside the pass
        self.assertEqual(run.pass_tails(events), [(1000 - 700) / 1e6])


class ResultLineTest(unittest.TestCase):
    def test_idle_layers_read_zero_and_units_attach(self):
        harness = {"correct": True, "attempted": 3, "failed": 0,
                   "metrics": {"evals_per_s": 5.0},
                   "idle_layers": ["sched", "exec.tail_s"]}
        catalog = {"evals_per_s": "1/s", "sched.retries": "count",
                   "exec.tail_s": "s"}
        line = run.result_line(harness, catalog)
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual(line["metrics"]["evals_per_s"],
                         {"value": 5.0, "unit": "1/s"})
        self.assertEqual(line["metrics"]["sched.retries"]["value"], 0.0)
        self.assertEqual(line["metrics"]["exec.tail_s"]["value"], 0.0)

    def test_missing_active_metric_is_an_error(self):
        harness = {"correct": True, "attempted": 1, "failed": 0,
                   "metrics": {}, "idle_layers": ["sched"]}
        with self.assertRaises(SystemExit):
            run.result_line(harness, {"schedule_s": "s"})


class ContractTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

    def test_keys_and_limits(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertEqual(spec["command"][1], "perfbench/run.py")
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        runs = 4 + 22 * len(spec["workloads"])
        # A run measures run_seconds plus ~15 s of set-up, warm-up and
        # correctness gate; two builds take ~2 x 300 s at most.
        self.assertLess(runs * (spec["run_seconds"] + 15), 3420 - 2 * 300)

    def test_names_units_and_bounds(self):
        names = []
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
            names.append(m["name"])
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))

    def test_workloads_match_run_py(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]),
                         run.WORKLOADS)
        self.assertEqual(set(run.OVERHEAD_METRIC), set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
