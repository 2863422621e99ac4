#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

Run from the root of a checkout (builds the benchmark first if needed):

    python3 perfbench/test_perfbench.py

Covers the BENCHMARK.json contract; the percentile rule, metric-name
validation and seed determinism of the generated inputs (through
`perfbench_run --selftest`); and a smoke-size run of every workload,
untraced and traced, whose metrics must match the declared names and
units: every workload reports every end-to-end metric untraced and
every per-layer metric traced.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

WORKLOADS = run.WORKLOADS


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


class BenchmarkJsonTest(unittest.TestCase):
    def test_contract_shape(self):
        spec = load_spec()
        self.assertEqual(sorted(spec), ["command", "end_to_end", "paths",
                                        "per_layer", "run_seconds",
                                        "workloads"])
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(WORKLOADS))
        for w in spec["workloads"]:
            self.assertEqual(sorted(w), ["name", "why"])
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        names = []
        for m in spec["end_to_end"]:
            self.assertEqual(sorted(m), ["better", "bound", "name", "unit"])
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
            names.append(m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(sorted(m), ["better", "name", "unit"])
            names.append(m["name"])
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME_RE)
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("higher", "lower"))
        self.assertEqual(len(names), len(set(names)), "names used once")
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))

    def test_every_layer_metric_has_a_target(self):
        spec = load_spec()
        with open(HERE / "targets.json") as f:
            targets = json.load(f)
        self.assertEqual(set(targets["per_layer"]),
                         {m["name"] for m in spec["per_layer"]})
        e2e = {m["name"] for m in spec["end_to_end"]}
        for name, t in targets["per_layer"].items():
            self.assertLessEqual(set(t["moves"]), e2e, name)
            self.assertIn(t["on"], set(WORKLOADS) | {"all"}, name)
        self.assertNotEqual(targets["default_seed"], targets["held_out_seed"])


class BinaryTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(ROOT)

    def test_selftest(self):
        proc = subprocess.run([str(self.binary), "--selftest"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def smoke(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", str(trace),
             "--smoke"], capture_output=True, text=True, cwd=ROOT,
            timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        spec = load_spec()
        declared = {m["name"]: m["unit"] for m in
                    spec["per_layer" if trace else "end_to_end"]}
        # Every workload reports every declared metric of its mode.
        self.assertEqual(set(result["metrics"]), set(declared))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], declared[name], name)
            self.assertIsInstance(m["value"], (int, float), name)
        return result

    def test_smoke_static_corpus(self):
        self.smoke("static_corpus", 0)
        self.smoke("static_corpus", 1)

    def test_smoke_sim_validate(self):
        r = self.smoke("sim_validate", 0)
        self.assertGreater(r["metrics"]["ops_per_s"]["value"], 0)
        self.smoke("sim_validate", 1)

    def test_smoke_store_replay(self):
        self.smoke("store_replay", 0)
        self.smoke("store_replay", 1)


if __name__ == "__main__":
    unittest.main()
