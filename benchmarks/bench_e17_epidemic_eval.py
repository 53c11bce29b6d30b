"""E17 — distributed epidemic evaluators.

The E1/E4 metrics are distributed in bench_e16; this benchmark covers the
remaining trace-level evaluators: sharded
:func:`~repro.epidemic.analysis.r0_estimation_error` (epoch-keyed occupancy
counters) and :func:`~repro.epidemic.monitor.perturbed_flows` (E11's
metapop flow matrices) across shard counts and backends, each with the
bit-identity determinism bit against the serial 1-shard baseline
(``test_epidemic_matches_serial`` is a CI acceptance).

``benchmarks/run_bench.py`` records the same sweep into ``BENCH_eval.json``;
running this file directly writes the standalone artifact CI uploads::

    PYTHONPATH=src python benchmarks/bench_e17_epidemic_eval.py --smoke
    PYTHONPATH=src pytest benchmarks/bench_e17_epidemic_eval.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest

from repro.engine import PrivacyEngine, ensure_backend
from repro.epidemic.analysis import r0_estimation_error
from repro.epidemic.monitor import perturbed_flows
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like

SHARD_COUNTS = [1, 2, 4]
BACKENDS = ["serial", "thread", "pool"]
N_USERS = 120
HORIZON = 16

#: CI-sized workload shared by ``--smoke`` here and ``run_bench.py --smoke``,
#: so both artifacts always measure the same configuration.
SMOKE_WORKLOAD = {"size": 8, "n_users": 30, "horizon": 10}


def _workload(size: int = 12, n_users: int = N_USERS, horizon: int = HORIZON):
    world = GridWorld(size, size)
    db = geolife_like(world, n_users=n_users, horizon=horizon, rng=1)
    engine = PrivacyEngine.from_spec(
        world, mechanism="planar_laplace", policy="G1", epsilon=1.0
    )
    return world, db, engine


def _metric_calls(world, db, engine):
    """The two timed evaluators, as (name, call(shards, backend)) pairs."""
    return [
        (
            "e2_r0_estimation_error",
            lambda shards, backend: r0_estimation_error(
                world, engine, db, p_transmit=0.3, gamma=0.1, rng=0,
                shards=shards, backend=backend,
            ),
        ),
        (
            "e11_perturbed_flows",
            lambda shards, backend: perturbed_flows(
                world, engine, db, 4, 4, rng=0, shards=shards, backend=backend
            ),
        ),
    ]


def epidemic_sweep_records(
    size: int = 12,
    n_users: int = N_USERS,
    horizon: int = HORIZON,
    backends=tuple(BACKENDS),
    shard_counts=tuple(SHARD_COUNTS),
) -> list[dict]:
    """Sharded epidemic-evaluator throughput per (metric, backend, shards).

    One backend instance is opened per backend name and reused across its
    shard counts and both metrics (the pool's worker-side engine cache warms
    once per sweep).  ``matches_serial`` compares each value bit-for-bit
    against the serial 1-shard baseline.
    """
    world, db, engine = _workload(size, n_users, horizon)
    records = []
    for name, call in _metric_calls(world, db, engine):
        reference = call(1, "serial")
        for backend_name in backends:
            with ensure_backend(backend_name) as backend:
                for shards in shard_counts:
                    start = time.perf_counter()
                    value = call(shards, backend)
                    seconds = time.perf_counter() - start
                    records.append(
                        {
                            "metric": name,
                            "backend": backend_name,
                            "shards": shards,
                            "seconds": round(seconds, 6),
                            "releases_per_sec": round(len(db) / seconds, 1),
                            "matches_serial": value == reference,
                        }
                    )
    return records


def epidemic_eval_block(smoke: bool) -> dict:
    """The E17 payload (`sweep`) at either size.

    The single source of truth for both artifacts: ``run_bench.py`` embeds
    this block in ``BENCH_eval.json`` and ``main`` below writes it
    standalone, so the two always measure the same workload.
    """
    if smoke:
        return {
            "sweep": epidemic_sweep_records(
                backends=("serial", "thread", "pool"),
                shard_counts=(1, 2),
                **SMOKE_WORKLOAD,
            ),
        }
    return {"sweep": epidemic_sweep_records()}


# ----------------------------------------------------------------------
# pytest-benchmark micro view
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_bench_sharded_r0(benchmark, backend, shards):
    world, db, engine = _workload()
    with ensure_backend(backend) as live:
        benchmark(
            r0_estimation_error, world, engine, db, p_transmit=0.3, gamma=0.1,
            rng=0, shards=shards, backend=live,
        )


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_bench_sharded_flows(benchmark, backend, shards):
    world, db, engine = _workload()
    with ensure_backend(backend) as live:
        benchmark(
            perturbed_flows, world, engine, db, 4, 4, rng=0,
            shards=shards, backend=live,
        )


def test_epidemic_matches_serial():
    """Acceptance: every (metric, backend, shards) cell is bit-identical."""
    records = epidemic_sweep_records(
        size=8, n_users=40, horizon=10,
        backends=tuple(BACKENDS), shard_counts=(1, 2, 4),
    )
    failures = [r for r in records if not r["matches_serial"]]
    assert not failures, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized configuration")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_e17_epidemic.json",
        help="where to write the JSON artifact (default: repo root)",
    )
    args = parser.parse_args(argv)
    block = epidemic_eval_block(args.smoke)
    payload = {"config": "smoke" if args.smoke else "full", **block}
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for record in block["sweep"]:
        print(
            f"E17: {record['metric']:<24} {record['backend']:<8} shards={record['shards']}"
            f"  {record['releases_per_sec']:>12,.0f} releases/s"
            f"  matches_serial={record['matches_serial']}"
        )
    print(f"E17: -> {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
