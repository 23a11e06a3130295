#!/usr/bin/env python3
"""End-to-end self-test of the benchmark, run from the repository root:

    python3 perfbench/tests/test_benchmark.py

Builds efd_perfbench and the C++ self-tests, runs the self-tests, then runs every
workload briefly: untraced on the default seed and on another seed (every
verdict must match, every end-to-end metric in BENCHMARK.json must print with
its unit), and traced once (every per-layer metric must print with its unit,
and the span file must nest). Takes a few minutes.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.dont_write_bytecode = True
sys.path.insert(0, BENCH)
import run  # noqa: E402  (perfbench/run.py)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=180)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class Benchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bdir = run.build(["efd_perfbench", "perfbench_selftest"])
        assert cls.bdir is not None, "build failed"

    def test_selftest_binary(self):
        proc = subprocess.run([os.path.join(self.bdir, "perfbench_selftest")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def check_metrics(self, result, specs):
        want = {m["name"]: m["unit"] for m in specs}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_untraced_two_seeds(self):
        for w in SPEC["workloads"]:
            for seed in (42, 7):
                with self.subTest(workload=w["name"], seed=seed):
                    code, result = bench(w["name"], seed, 0)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.check_metrics(result, SPEC["end_to_end"])
                    for name, m in result["metrics"].items():
                        self.assertGreater(m["value"], 0, name)

    def test_traced_spans_nest(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                code, result = bench(w["name"], 42, 1)
                self.assertEqual(code, 0)
                self.check_metrics(result, SPEC["per_layer"])
                self.assertEqual(result["metrics"]["bench.error_rate"]["value"], 0)
                path = os.path.join(self.bdir, "spans", "%s-seed42.jsonl" % w["name"])
                with open(path) as f:
                    spans = {s["id"]: s for s in map(json.loads, f)}
                self.assertTrue(spans)
                for s in spans.values():
                    self.assertLessEqual(s["start_ns"], s["end_ns"])
                    if s["parent"] == 0:
                        continue
                    p = spans[s["parent"]]
                    self.assertLessEqual(p["start_ns"], s["start_ns"], s["name"])
                    self.assertLessEqual(s["end_ns"], p["end_ns"], s["name"])
                    self.assertEqual(p["run"], s["run"], s["name"])


if __name__ == "__main__":
    unittest.main()
