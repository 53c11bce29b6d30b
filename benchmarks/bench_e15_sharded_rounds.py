"""E15 — sharded release rounds: throughput vs shard count per backend.

The sharded pipeline's promise is two-sided: shard the population freely
(throughput) without moving a single release (determinism).  These
benchmarks measure the first half on the pytest-benchmark harness — full
``run_release_rounds_batched`` runs across shard counts and backends — and
``test_sharded_matches_unsharded`` re-pins the second half so a perf
regression fix can never silently trade determinism away.

``benchmarks/run_bench.py`` times the same sweep without pytest overhead and
records it (with backend / shard-count metadata) into ``BENCH_eval.json``.

Each backend is built once and started by one untimed release before any
timed run, so no timing includes worker start-up (a pool starts its
workers on first use).
"""

import time
from contextlib import contextmanager

import pytest

from repro.engine import PrivacyEngine, ensure_backend
from repro.experiments.configs import ExperimentConfig
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like
from repro.server.pipeline import run_release_rounds_batched

SHARD_COUNTS = [1, 2, 4, 8]
N_USERS = 200
HORIZON = 24


def _workload(size: int = 16):
    world = GridWorld(size, size)
    db = geolife_like(world, n_users=N_USERS, horizon=HORIZON, rng=1)
    engine = PrivacyEngine.from_spec(world, mechanism="planar_laplace", policy="G1", epsilon=1.0)
    return world, db, engine


@contextmanager
def _started(name: str):
    """Backend ``name``, its workers started by one untimed release."""
    world, db, engine = _workload(size=8)
    with ensure_backend(name) as backend:
        run_release_rounds_batched(
            world, db, engine, rng=0, shards=max(SHARD_COUNTS), backend=backend
        )
        yield backend


@pytest.fixture(scope="module", params=ExperimentConfig().backends)
def backend(request):
    with _started(request.param) as backend:
        yield backend


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_bench_sharded_rounds(benchmark, backend, shards):
    world, db, engine = _workload()
    benchmark(
        run_release_rounds_batched, world, db, engine,
        rng=0, shards=shards, backend=backend,
    )


def test_sharded_matches_unsharded():
    """Acceptance: every (backend, shards) pair of E8's default sweep
    releases identical values."""
    world, db, engine = _workload(size=8)
    reference = run_release_rounds_batched(world, db, engine, rng=7, shards=1)
    expected = list(reference.released_db.checkins())
    timings = {}
    for name in ExperimentConfig().backends:
        with _started(name) as backend:
            for shards in SHARD_COUNTS:
                start = time.perf_counter()
                server = run_release_rounds_batched(
                    world, db, engine, rng=7, shards=shards, backend=backend
                )
                timings[(name, shards)] = time.perf_counter() - start
                assert list(server.released_db.checkins()) == expected, (name, shards)
    releases = len(db)
    print()
    for (backend, shards), seconds in timings.items():
        print(f"E15: {backend:<8} shards={shards}  {releases / seconds:>12,.0f} releases/s")
