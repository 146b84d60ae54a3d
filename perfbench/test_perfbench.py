#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

They build the benchmark on first use (as perfbench/run.py does) and run
every workload in smoke mode: one setup, small query blocks, and a YAGO
graph scaled to 10%. fb15k-transe's smoke runs include its data-parallel
epochs (threads and worker processes) on the full FB15K graph.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
# Smoke seconds per workload: fb15k-transe needs five epochs before its ANN
# recall floor applies, so it runs at least four rounds after setup (traced
# rounds are the longer ones).
SMOKE_SECONDS = {"fb15k-transe": 22, "yago-transe-spmm": 5}

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed=1, trace=0, cwd=ROOT, check=True):
    """One smoke run; returns (result, context) parsed from stdout."""
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SMOKE_SECONDS.get(workload, 5)),
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    if not check:
        return proc
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    context = json.loads(lines[-2])["context"]
    return json.loads(lines[-1]), context


class Names(unittest.TestCase):
    def test_names_are_well_formed(self):
        names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_setup_metric_is_declared(self):
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in SPEC["end_to_end"])}])


class Smoke(unittest.TestCase):
    """Every workload end to end, in both modes, with every declared metric."""

    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = run(workload)
                self.check_metrics(result, SPEC["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = run(workload, trace=1)
                self.check_metrics(result, SPEC["per_layer"])
                trace = os.path.join(ROOT, ".bench_build", "traces", f"{workload}-seed1.json")
                with open(trace) as f:
                    self.assertTrue(json.load(f)["traceEvents"])
                coverage = result["metrics"]["train.coverage"]["value"]
                self.assertGreater(coverage, 0.5)
                procs = result["metrics"]["distributed.procs_epoch_s"]["value"]
                if workload == "fb15k-transe":
                    self.assertGreater(procs, 0)


class Seeds(unittest.TestCase):
    def test_seed_changes_graph_not_metric_set(self):
        a, ctx_a = run("yago-transe-spmm", seed=1)
        b, ctx_b = run("yago-transe-spmm", seed=2)
        self.assertNotEqual(ctx_a["checks"]["graph_fingerprint"],
                            ctx_b["checks"]["graph_fingerprint"])
        self.assertEqual(set(a["metrics"]), set(b["metrics"]))

    def test_same_seed_repeats_loss_and_mrr(self):
        _, first = run("yago-transe-spmm", seed=3)
        _, second = run("yago-transe-spmm", seed=3)
        for key in ("graph_fingerprint", "first_epoch_loss", "first_mrr", "last_mrr"):
            self.assertEqual(first["checks"][key], second["checks"][key], key)


class Standalone(unittest.TestCase):
    def test_fails_without_the_repository(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(WORKLOADS[0], cwd=tmp, check=False)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
