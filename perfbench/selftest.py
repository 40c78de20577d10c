"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload on the small inputs of ``spec.json``'s ``smoke``
section and checks that

* every metric ``BENCHMARK.json`` declares is emitted with its unit,
  untraced (end-to-end) and traced (per-layer);
* a planted wrong verdict is counted as failed, kept out of the latency
  samples, and turns the exit status to 1;
* the per-operation counts repeat exactly under two ``PYTHONHASHSEED``
  values;
* the command exits non-zero, without a result line, in a directory
  holding only ``BENCHMARK.json`` and this directory.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

from common import BENCH_DIR, CONTRACT, ROOT, load_contract
from run import WORKLOADS, report, run_workload

SECONDS = 2.0
COUNT_METRICS = ("core.pairs", "core.profiles", "core.rounds",
                 "engine.stages", "engine.rows_out", "columns.join_calls")
#: A verdict no scenario can produce, planted as ground truth.
PLANTED = {"planted": True}


def _cli(*args, env=None, cwd=ROOT):
    """Run the benchmark command from *cwd*, as an outside caller."""
    return subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR.name, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, env=env)


class MetricsEmitted(unittest.TestCase):

    def test_every_declared_metric_with_its_unit(self):
        contract = load_contract()
        for workload in WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=workload, trace=trace):
                    outcome = run_workload(workload, 7, SECONDS, trace,
                                           smoke=True)
                    line, status = report(outcome, contract, trace)
                    result = json.loads(line)
                    self.assertEqual(status, 0)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = contract["per_layer" if trace
                                        else "end_to_end"]
                    self.assertEqual(
                        {name: metric["unit"] for name, metric
                         in result["metrics"].items()},
                        {entry["name"]: entry["unit"] for entry in declared})
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], float)


class PlantedWrongVerdict(unittest.TestCase):

    def _check(self, outcome):
        line, status = report(outcome, load_contract(), False)
        result = json.loads(line)
        self.assertEqual(status, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        # Failed operations are counted, not timed.
        self.assertEqual(outcome["summary"]["samples"],
                         result["attempted"] - result["failed"])

    def test_in_process_workloads(self):
        for workload, scenario in (("eval_scale", "scale_chain_2hop_5k"),
                                   ("decide_cold", "bounded_buys")):
            with self.subTest(workload=workload):
                self._check(run_workload(workload, 7, SECONDS, False,
                                         smoke=True,
                                         plant={scenario: PLANTED}))

    def test_service_mix(self):
        outcome = run_workload("service_mix", 7, SECONDS, False, smoke=True,
                               plant={0: ("decide", PLANTED)})
        self.assertEqual(outcome["failed"], 1)
        self._check(outcome)


class CountsRepeat(unittest.TestCase):

    def test_counts_independent_of_hash_seed(self):
        for workload in ("eval_scale", "decide_cold"):
            seen = []
            for hash_seed in ("1", "2"):
                env = dict(os.environ, PYTHONHASHSEED=hash_seed)
                done = _cli("--workload", workload, "--seed", "3",
                            "--seconds", str(SECONDS), "--trace", "1",
                            "--smoke", env=env)
                self.assertEqual(done.returncode, 0, done.stderr)
                metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
                seen.append({name: metrics[name]["value"]
                             for name in COUNT_METRICS})
            with self.subTest(workload=workload):
                self.assertEqual(seen[0], seen[1])


class BareDirectory(unittest.TestCase):

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(CONTRACT, bare)
            shutil.copytree(BENCH_DIR, os.path.join(bare, BENCH_DIR.name),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = _cli("--workload", "decide_cold", "--seed", "1",
                        "--seconds", "1", "--trace", "0", cwd=bare,
                        env={k: v for k, v in os.environ.items()
                             if k != "PYTHONPATH"})
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
