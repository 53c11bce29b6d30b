"""Tiny-size self-test of the benchmark harness.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that every workload emits every named metric with its unit in
both modes and passes its oracles, that a wrong query answer is caught as a
failure, that ``BENCHMARK.json`` matches the tables in ``run.py``, and that
the command refuses to run where the program source is missing.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import LAYER_UNITS  # noqa: E402


def _execute(workload: str, trace: bool) -> "tuple[dict, str]":
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        result = run.execute(workload, seed=5, seconds=0.2, trace=trace, scale="tiny")
    return result, printed.getvalue()


class SelfTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        units = {False: {name: unit for name, unit, _, _ in run.END_TO_END}, True: LAYER_UNITS}
        for workload in run.WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=workload, trace=trace):
                    result, printed = _execute(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], printed)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
                    self.assertEqual(got, units[trace])
                    for name, metric in result["metrics"].items():
                        self.assertIn(f"{name} = ", printed)
                        if not trace:
                            self.assertGreater(metric["value"], 0, name)

    def test_wrong_query_answer_is_a_failure(self):
        from repro.query.api import QueryEngine

        original = QueryEngine.top_cells

        def drops_the_hottest_cell(self, *args, **kwargs):
            return original(self, *args, **kwargs)[1:]

        QueryEngine.top_cells = drops_the_hottest_cell
        try:
            result, _ = _execute("query_mix", trace=False)
        finally:
            QueryEngine.top_cells = original
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_oracle_sample_covers_every_round_and_shard(self):
        from repro.engine.sharding import ShardPlan
        from workloads import SHARDS, Run

        for workload in run.WORKLOADS:
            with self.subTest(workload=workload), tempfile.TemporaryDirectory() as workdir:
                bench = Run(workload, 5, "tiny", Path(workdir))
                times = sorted(set(bench.db.to_arrays()[1].tolist()))
                sample = bench.oracle_sample(times)
                covered = {t for window, _ in sample for t in range(window.start, window.end + 1)}
                self.assertTrue(set(times) <= covered)
                plan = ShardPlan.build(bench.users.tolist(), SHARDS, rng=5)
                self.assertEqual({plan.shard_of(user) for _, user in sample}, set(range(SHARDS)))

    def test_manifest_matches_the_tables(self):
        recorded = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(recorded, run.manifest())

    def test_refuses_to_run_without_program_source(self):
        scratch = run.ROOT / ".perfbench"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="bare-", dir=scratch) as bare:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(
                HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
            )
            command = [sys.executable, "perfbench/run.py", "--workload", "query_mix"]
            proc = subprocess.run(
                command + ["--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare,
                capture_output=True,
                text=True,
                timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
