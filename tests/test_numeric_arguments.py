"""Counts, indices and window bounds are ints; R0 parameters are checked.

The query, live-metrics, shard-commit and execution-backend surfaces take
integer counts, round and shard indices and worker counts.  A bool, a float
or a string there raises :class:`~repro.errors.ValidationError` instead of
being truncated (``2.7`` used to act as ``2`` and ``True`` as ``1``), and a
negative shard index is refused, while numpy ints pass.  A refused shard
writes nothing.  The ``QueryEngine`` R0 parameters are validated the way
:class:`~repro.server.live_metrics.ContactRateView` validates them, and a
bool is not a number there or in an epsilon.  An ``rng`` is ``None``, a
numpy Generator or an int >= 0 (``True`` used to act as seed 1), and a
``batched`` flag is a bool (``"false"`` used to run the batched path).
Cell arrays of a float or bool dtype are refused instead of truncated to
cell ids (``[1.5, 2.9]`` used to release cells 1 and 2).  A backend
parameter the named backend does not take is refused by name too (it used
to surface as a bare ``TypeError`` from the constructor).  A NaN or
infinite point is refused by ``snap`` / ``snap_batch`` instead of snapped
to a real cell (NaN used to land in cell 4 of a 4 x 4 grid, and infinity in
column 0), so a shard carrying one writes nothing.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.adversary.metrics import adversary_error
from repro.engine import ExecutionSpec, PoolBackend, PrivacyEngine
from repro.epidemic.monitor import monitoring_utility
from repro.errors import ValidationError
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like
from repro.query import QueryEngine, Window, sliding_windows, tumbling_windows
from repro.server.live_metrics import ContactRateView
from repro.server.pipeline import Server, run_release_rounds_batched
from repro.store import PreparedShard, TraceStore


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A small durable run with live views: ``(server, store path)``."""
    path = tmp_path_factory.mktemp("numeric") / "run.sqlite"
    world = GridWorld(6, 6)
    db = geolife_like(world, n_users=6, horizon=5, rng=2)
    engine = PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)
    server = run_release_rounds_batched(
        world, db, engine, rng=3, shards=2, store=str(path), live_metrics=True
    )
    return server, path


def _top_cells(path, k):
    with QueryEngine(path) as engine:
        return engine.top_cells(Window(0, 4), k)


def _query_engine(path, **params):
    with QueryEngine(path, **params) as engine:
        return engine.contact_rate(Window(0, 4))


def _engine(world, epsilon=1.0):
    return PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=epsilon)


def _query(path, method, *args):
    with QueryEngine(path) as engine:
        return getattr(engine, method)(*args)


def _batch(world):
    """One release of cell 3, whose ``cells`` carry the true cell."""
    return _engine(world).release_batch([3], rng=0)


def _commit_shard(shard):
    batch = _batch(GridWorld(6, 6))
    with TraceStore(":memory:") as store:
        store.commit_shard(
            shard,
            PreparedShard.build([1], [0], batch.cells, batch.points, batch.exact, batch.epsilons),
        )


def _ingest_shard(shard):
    world = GridWorld(6, 6)
    Server(world).ingest_shard([1], [0], _batch(world), shard=shard)


def _live_check(server, shard):
    batch = _batch(server.world)
    server.metrics.check(
        shard, PreparedShard.build([1], [0], batch.cells, batch.points, true_cells=batch.cells)
    )


def _replay_shard(shard):
    with TraceStore(":memory:") as store:
        Server(GridWorld(6, 6), store=store).replay_shard(0, 5, shard=shard)


def _monitoring_utility(rng=0, batched=True):
    world = GridWorld(6, 6)
    db = geolife_like(world, n_users=3, horizon=3, rng=1)
    monitoring_utility(world, _engine(world), db, rng=rng, batched=batched)


def _release_rounds(rng):
    world = GridWorld(6, 6)
    db = geolife_like(world, n_users=3, horizon=3, rng=1)
    run_release_rounds_batched(world, db, _engine(world), rng=rng)


def _build_backend(name, **params):
    with ExecutionSpec(backend=name, params=params).build():
        pass


def _adversary_error(batched):
    world = GridWorld(6, 6)
    adversary_error(world, _engine(world), [1, 2], rng=0, batched=batched)


BAD_ARGUMENTS = {
    "window end 2.7": lambda run: Window(0, 2.7),
    "window start 0.5": lambda run: Window(0.5, 2),
    "tumbling width 2.5": lambda run: tumbling_windows(0, 5, 2.5),
    "tumbling width True": lambda run: tumbling_windows(0, 5, True),
    "tumbling end 5.5": lambda run: tumbling_windows(0, 5.5, 2),
    "sliding step 1.5": lambda run: sliding_windows(0, 4, 2, step=1.5),
    "sliding width True": lambda run: sliding_windows(0, 4, True),
    "top_cells k 2.5": lambda run: _top_cells(run[1], 2.5),
    "top_cells k True": lambda run: _top_cells(run[1], True),
    "metrics_at 2.7": lambda run: run[0].metrics_at(2.7),
    "metrics_at True": lambda run: run[0].metrics_at(True),
    "commit_shard 2.7": lambda run: _commit_shard(2.7),
    "commit_shard str 3": lambda run: _commit_shard("3"),
    "commit_shard float64 4.2": lambda run: _commit_shard(np.float64(4.2)),
    "commit_shard -1": lambda run: _commit_shard(-1),
    "ingest_shard shard True": lambda run: _ingest_shard(True),
    "ingest_shard shard -1": lambda run: _ingest_shard(-1),
    "live check shard 0.9": lambda run: _live_check(run[0], 0.9),
    "replay_shard shard 1.5": lambda run: _replay_shard(1.5),
    "pool max_workers 1.5": lambda run: PoolBackend(max_workers=1.5),
    "pool max_workers True": lambda run: PoolBackend(max_workers=True),
    "serial params max_workers": lambda run: _build_backend("serial", max_workers=2),
    "pool params workers": lambda run: _build_backend("pool", workers=2),
    "p_transmit 2.0": lambda run: _query_engine(run[1], p_transmit=2.0),
    "p_transmit nan": lambda run: _query_engine(run[1], p_transmit=math.nan),
    "gamma -1": lambda run: _query_engine(run[1], gamma=-1),
    "gamma 0": lambda run: _query_engine(run[1], gamma=0),
    "gamma nan": lambda run: _query_engine(run[1], gamma=math.nan),
    "monitoring_utility rng 2.5": lambda run: _monitoring_utility(rng=2.5),
    "monitoring_utility rng -1": lambda run: _monitoring_utility(rng=-1),
    "monitoring_utility rng True": lambda run: _monitoring_utility(rng=True),
    "monitoring_utility rng str 7": lambda run: _monitoring_utility(rng="7"),
    "release rounds rng 2.5": lambda run: _release_rounds(2.5),
    "release rounds rng -1": lambda run: _release_rounds(-1),
    "release rounds rng True": lambda run: _release_rounds(True),
    "release rounds rng str 7": lambda run: _release_rounds("7"),
    "monitoring_utility batched str false": lambda run: _monitoring_utility(batched="false"),
    "monitoring_utility batched None": lambda run: _monitoring_utility(batched=None),
    "monitoring_utility batched 0": lambda run: _monitoring_utility(batched=0),
    "adversary_error batched str false": lambda run: _adversary_error("false"),
    "adversary_error batched None": lambda run: _adversary_error(None),
    "adversary_error batched 0": lambda run: _adversary_error(0),
    "missing_shards 2.7": lambda run: _query(run[1], "missing_shards", 2.7),
    "missing_shards True": lambda run: _query(run[1], "missing_shards", True),
    "missing_shards str 5": lambda run: _query(run[1], "missing_shards", "5"),
    "missing_shards nan": lambda run: _query(run[1], "missing_shards", math.nan),
    "epsilon_spent user 1.5": lambda run: _query(run[1], "epsilon_spent", 1.5, Window(0, 3)),
    "trajectory user True": lambda run: _query(run[1], "trajectory", True, Window(0, 3)),
    "trajectory user 1.5": lambda run: _query(run[1], "trajectory", 1.5),
    "engine epsilon True": lambda run: _engine(GridWorld(6, 6), epsilon=True),
    "engine epsilon numpy True": lambda run: _engine(GridWorld(6, 6), epsilon=np.True_),
    "ContactRateView gamma True": lambda run: ContactRateView(gamma=True),
    "ContactRateView p_transmit numpy True": lambda run: ContactRateView(p_transmit=np.True_),
    "p_transmit True": lambda run: _query_engine(run[1], p_transmit=True),
    "release_batch cells float": lambda run: _engine(GridWorld(6, 6)).release_batch(
        [1.5, 2.9], rng=0
    ),
    "release_batch cells bool": lambda run: _engine(GridWorld(6, 6)).release_batch(
        [True], rng=0
    ),
    "pdf_matrix cells float": lambda run: _engine(GridWorld(6, 6)).pdf_matrix(
        [[0.5, 0.5]], cells=np.array([1.5, 2.0])
    ),
    "cells_array float and bool": lambda run: GridWorld(6, 6).cells_array([1.7, True]),
    "snap_batch nan": lambda run: GridWorld(4, 4).snap_batch([[math.nan, 1.0]]),
    "snap_batch inf": lambda run: GridWorld(4, 4).snap_batch([[0.5, 0.5], [math.inf, 2.5]]),
    "snap nan": lambda run: GridWorld(4, 4).snap((math.nan, 1.0)),
    "snap inf": lambda run: GridWorld(4, 4).snap((math.inf, 1.0)),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_bad_argument_raises(run, case):
    with pytest.raises(ValidationError):
        BAD_ARGUMENTS[case](run)


def test_numpy_ints_accepted(run):
    server, path = run
    window = Window(np.int64(0), np.int32(4))
    assert (window.start, window.end) == (0, 4)
    assert type(window.start) is int and type(window.end) is int
    assert tumbling_windows(np.int64(0), np.int64(5), np.int64(2)) == tumbling_windows(0, 5, 2)
    assert sliding_windows(0, 4, np.int64(2), step=np.int32(1)) == sliding_windows(0, 4, 2)
    assert _top_cells(path, np.int64(2)) == _top_cells(path, 2)
    assert server.metrics_at(np.int64(4)) == server.metrics_at(4)
    assert PoolBackend(max_workers=np.int64(2)).max_workers == 2


def test_empty_cell_sequences_accepted():
    # numpy reads [] as float64; an empty sequence is still no cells.
    world = GridWorld(6, 6)
    engine = _engine(world)
    assert len(engine.release_batch([], rng=0)) == 0
    assert engine.pdf_matrix([[0.5, 0.5]], cells=[]).shape == (1, 0)
    assert world.cells_array([]).dtype == np.int64
    assert world.cells_array(np.array([], dtype=float)).size == 0


def test_refused_shard_writes_nothing(run):
    # A coerced index (2.7 -> shard 2, True -> shard 1) or a negative one
    # would key commit marks and live deltas of a shard the plan does not
    # hold, so the refusal must come before the store commit, the ledger
    # charge and the live fold.
    # So must a release point with no nearest cell, under a valid index.
    server, path = run
    batch = _batch(server.world)
    nan_point = dataclasses.replace(batch, points=np.array([[math.nan, 1.0]]))
    refused = [(shard, batch) for shard in (2.7, "3", np.float64(4.2), True, -1)]
    charged = len(server.ledger.entries)
    with TraceStore(path) as store:
        committed = store.committed()
        durable = Server(server.world, store=store)
        for shard, shard_batch in [*refused, (1, nan_point)]:
            with pytest.raises(ValidationError):
                durable.ingest_shard([99], [0], shard_batch, shard=shard)
            with pytest.raises(ValidationError):
                server.ingest_shard([99], [0], shard_batch, shard=shard)
        assert store.committed() == committed
        assert durable.ledger.entries == ()
    assert len(server.ledger.entries) == charged
