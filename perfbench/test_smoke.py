"""Smoke test of the benchmark at a tiny size (4096-tick scans).

    python3 -m unittest perfbench/test_smoke.py

Runs every workload once untraced and once traced, for one second each, and
checks that the run succeeds, that its outputs pass every check and that it
emits exactly the metrics ``BENCHMARK.json`` names, each with its unit.  Two
small tests pin the span recorder's missing-name report and self times.
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--base-ticks", "4096", "--setup-samples", "1"],
        capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SpanTest(unittest.TestCase):
    def test_missing_names_are_reported_and_patches_undone(self):
        empty = {m: types.SimpleNamespace() for m in
                 ("cli", "pipeline", "update", "predictors")}
        write_text = Path.write_text
        missing = []
        with spans.installed(spans.Recorder(), empty, missing):
            self.assertIsNot(Path.write_text, write_text)
        self.assertIs(Path.write_text, write_text)
        self.assertEqual(missing, [f"{m}.{a}" for m, a, _ in spans.WRAPPED])

    def test_self_time_and_overlapping_children(self):
        parent = spans.Span("p", 0.0, 1.0)
        kids = [spans.Span("a", 0.0, 0.6, parent=0),
                spans.Span("b", 0.5, 0.9, parent=0)]
        selfs, problems = spans.self_times([parent, *kids])
        self.assertAlmostEqual(selfs[0], 0.1)
        self.assertEqual(len(problems), 0)
        kids[1].end = 1.0
        _, problems = spans.self_times([parent, *kids])
        self.assertEqual(len(problems), 1)  # 0.6 + 0.5 > 1.0


class SmokeTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        self.assertEqual({w["name"] for w in BENCHMARK["workloads"]},
                         set(WORKLOADS))

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = run_once(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 2)
                    expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, v in result["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), name)


if __name__ == "__main__":
    unittest.main()
