"""E16 — distributed evaluation: sharded metric throughput per backend.

The distributed-metric promise mirrors E15's: shard the evaluation freely
(throughput) without moving a single metric value (determinism).  These
benchmarks measure sharded :func:`~repro.epidemic.monitor.monitoring_utility`
across shard counts and backends and re-pin the bit-identity contract
(``test_distributed_matches_serial``).

``benchmarks/run_bench.py`` records the same sweep into ``BENCH_eval.json``;
running this file directly writes the standalone artifact CI uploads
alongside it::

    PYTHONPATH=src python benchmarks/bench_e16_distributed_eval.py --smoke
    PYTHONPATH=src pytest benchmarks/bench_e16_distributed_eval.py --benchmark-only
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
from repro.epidemic.monitor import monitoring_utility
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like

SHARD_COUNTS = [1, 2, 4]
BACKENDS = ["serial", "thread", "pool"]
N_USERS = 150
HORIZON = 16

#: CI-sized workload shared by ``--smoke`` here and ``run_bench.py --smoke``,
#: so both artifacts always measure the same configuration.
SMOKE_WORKLOAD = {"size": 8, "n_users": 40, "horizon": 10}


def _workload(size: int = 12, n_users: int = N_USERS, horizon: int = HORIZON):
    world = GridWorld(size, size)
    db = geolife_like(world, n_users=n_users, horizon=horizon, rng=1)
    engine = PrivacyEngine.from_spec(
        world, mechanism="planar_laplace", policy="G1", epsilon=1.0
    )
    return world, db, engine


def eval_sweep_records(
    size: int = 12,
    n_users: int = N_USERS,
    horizon: int = HORIZON,
    backends=tuple(BACKENDS),
    shard_counts=tuple(SHARD_COUNTS),
) -> list[dict]:
    """Sharded-E1 throughput per (backend, shards), with the determinism bit.

    One backend instance is opened per backend name and reused across its
    shard counts (the pool's amortisation shows up inside its row block).
    ``matches_serial`` compares the whole report bit-for-bit against the
    serial 1-shard baseline.
    """
    world, db, engine = _workload(size, n_users, horizon)
    reference = monitoring_utility(world, engine, db, rng=0, shards=1, backend="serial")
    records = []
    for name in backends:
        with ensure_backend(name) as backend:
            for shards in shard_counts:
                start = time.perf_counter()
                report = monitoring_utility(
                    world, engine, db, rng=0, shards=shards, backend=backend
                )
                seconds = time.perf_counter() - start
                records.append(
                    {
                        "metric": "e1_monitoring_utility",
                        "backend": name,
                        "shards": shards,
                        "seconds": round(seconds, 6),
                        "releases_per_sec": round(len(db) / seconds, 1),
                        "matches_serial": report == reference,
                    }
                )
    return records


def distributed_eval_block(smoke: bool) -> dict:
    """The E16 payload (`sweep`) at either size.

    The single source of truth for both artifacts: ``run_bench.py`` embeds
    this block in ``BENCH_eval.json`` and ``main`` below writes it
    standalone, so the two always measure the same workload.
    """
    if smoke:
        return {
            "sweep": eval_sweep_records(
                backends=("serial", "thread", "pool"),
                shard_counts=(1, 2),
                **SMOKE_WORKLOAD,
            ),
        }
    return {"sweep": eval_sweep_records()}


# ----------------------------------------------------------------------
# pytest-benchmark micro view
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_bench_distributed_eval(benchmark, backend, shards):
    world, db, engine = _workload()
    with ensure_backend(backend) as live:
        benchmark(
            monitoring_utility, world, engine, db, rng=0, shards=shards, backend=live
        )


def test_distributed_matches_serial():
    """Acceptance: every (backend, shards) pair scores identical reports."""
    world, db, engine = _workload(size=8, n_users=60, horizon=10)
    reference = monitoring_utility(world, engine, db, rng=3, shards=1, backend="serial")
    for backend in BACKENDS:
        with ensure_backend(backend) as live:
            for shards in SHARD_COUNTS:
                report = monitoring_utility(
                    world, engine, db, rng=3, shards=shards, backend=live
                )
                assert report == reference, (backend, shards)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized configuration")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_e16_distributed.json",
        help="where to write the JSON artifact (default: repo root)",
    )
    args = parser.parse_args(argv)
    block = distributed_eval_block(args.smoke)
    payload = {"config": "smoke" if args.smoke else "full", **block}
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for record in block["sweep"]:
        print(
            f"E16: {record['backend']:<8} shards={record['shards']}"
            f"  {record['releases_per_sec']:>12,.0f} releases/s"
            f"  matches_serial={record['matches_serial']}"
        )
    print(f"E16: -> {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
