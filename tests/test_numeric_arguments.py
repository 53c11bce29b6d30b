"""Counts, rounds and window bounds are ints; R0 parameters are checked.

The query, live-metrics and commit-queue surfaces take integer counts and
round indices.  A bool or a float there raises
:class:`~repro.errors.ValidationError` instead of being truncated (``2.7``
used to act as ``2`` and ``True`` as ``1``), while numpy ints pass.  The
``QueryEngine`` R0 parameters are validated the way
:class:`~repro.server.live_metrics.ContactRateView` validates them.
"""

import math

import numpy as np
import pytest

from repro.engine import PrivacyEngine
from repro.errors import ValidationError
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like
from repro.query import QueryEngine, Window, sliding_windows, tumbling_windows
from repro.server.pipeline import AsyncShardCommitter, run_release_rounds_batched


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
    "max_pending 2.5": lambda run: AsyncShardCommitter(run[0], max_pending=2.5),
    "max_pending True": lambda run: AsyncShardCommitter(run[0], max_pending=True),
    "p_transmit 2.0": lambda run: _query_engine(run[1], p_transmit=2.0),
    "p_transmit nan": lambda run: _query_engine(run[1], p_transmit=math.nan),
    "gamma -1": lambda run: _query_engine(run[1], gamma=-1),
    "gamma 0": lambda run: _query_engine(run[1], gamma=0),
    "gamma nan": lambda run: _query_engine(run[1], gamma=math.nan),
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
    committer = AsyncShardCommitter(server, max_pending=np.int64(2))
    committer.close()
