"""Tests of the run comparison tool and of BENCHMARK.json's shape.

    python3 -m unittest discover -s saebench/tests
"""

import json
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def record(workload, seed, metrics, trace=0):
    return {
        "workload": workload,
        "seed": seed,
        "trace": bool(trace),
        "result": {
            "correct": True,
            "attempted": 1,
            "failed": 0,
            "metrics": {k: {"value": v, "unit": "ms"} for k, v in metrics.items()},
        },
    }


def runs(values, metric="latency_p50_ms", workload="serve_small"):
    return [record(workload, seed, {metric: v}) for seed, v in enumerate(values)]


def verdict(base, new, metric="latency_p50_ms"):
    report = compare.compare(runs(base, metric), runs(new, metric), BENCHMARK)
    return report["serve_small"][metric]


class VerdictTest(unittest.TestCase):
    def test_same_runs_are_unchanged(self):
        vals = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01]
        row = verdict(vals, vals)
        self.assertEqual(row["verdict"], "unchanged")
        self.assertEqual(row["win"], 0.0)

    def test_regression_beyond_the_bound_is_worse(self):
        base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01]
        new = [v * 1.5 for v in base]
        self.assertEqual(verdict(base, new)["verdict"], "worse")

    def test_clear_gain_is_improved(self):
        base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01]
        new = [v * 0.7 for v in base]
        row = verdict(base, new)
        self.assertEqual(row["verdict"], "improved")
        self.assertEqual(row["win"], 1.0)

    def test_noise_wider_than_the_bound_is_unresolved(self):
        base = [1.0, 2.0, 0.5, 1.8, 0.6, 1.0, 2.2, 0.4, 1.0, 1.9]
        new = [1.1, 1.9, 0.6, 1.7, 0.5, 1.2, 2.1, 0.5, 0.9, 2.0]
        self.assertEqual(verdict(base, new)["verdict"], "unresolved")

    def test_higher_is_better_metrics_flip(self):
        base = [100.0, 101.0, 99.0, 100.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0]
        lower = [v * 0.5 for v in base]
        row = verdict(base, lower, metric="records_per_s")
        self.assertEqual(row["verdict"], "worse")
        higher = [v * 1.5 for v in base]
        row = verdict(base, higher, metric="records_per_s")
        self.assertEqual(row["verdict"], "improved")

    def test_a_small_win_inside_the_noise_is_not_improved(self):
        base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01]
        new = [v - 0.001 for v in base]
        self.assertEqual(verdict(base, new)["verdict"], "unchanged")

    def test_quartiles_match_the_statistics_module(self):
        vals = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
        self.assertEqual(compare.quartiles(vals), tuple(statistics.quantiles(vals, n=4)))

    def test_pairs_follow_seeds(self):
        base = [(1, 10.0), (2, 20.0)]
        new = [(2, 21.0), (1, 11.0)]
        self.assertEqual(compare.pairs(base, new), [(10.0, 11.0), (20.0, 21.0)])

    def test_per_layer_rows_carry_no_verdict(self):
        base = [record("batch_terasort", s, {"task.sort_ms": 5.0 + s}, trace=1) for s in range(4)]
        report = compare.compare(base, base, BENCHMARK, trace=1)
        self.assertEqual(report["batch_terasort"]["task.sort_ms"]["verdict"], "-")

    def test_reads_record_files_and_exits_1_on_worse(self):
        base = [1.00, 1.01, 0.99, 1.02, 0.98]
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp, "a"), Path(tmp, "b")
            a.mkdir()
            b.mkdir()
            for i, rec in enumerate(runs(base)):
                (a / f"{i}.json").write_text(json.dumps(rec))
            for i, rec in enumerate(runs([v * 2 for v in base])):
                (b / f"{i}.json").write_text(json.dumps(rec))
            self.assertEqual(len(compare.load_records([a])), 5)
            self.assertEqual(compare.main([str(a), "--new", str(b), "--json"]), 1)
            self.assertEqual(compare.main([str(a), "--new", str(a), "--json"]), 0)


class BenchmarkFileTest(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(
            set(BENCHMARK),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
        names += [w["name"] for w in BENCHMARK["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in BENCHMARK["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in BENCHMARK["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in BENCHMARK["end_to_end"]))
        for w in BENCHMARK["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)

    def test_every_metric_is_defined_in_metrics_md(self):
        doc = (BENCH_DIR / "METRICS.md").read_text()
        for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            name = m["name"]
            if name.startswith("exp."):
                name = "exp.<id>_s"
            self.assertIn(f"`{name}`", doc)


if __name__ == "__main__":
    unittest.main()
