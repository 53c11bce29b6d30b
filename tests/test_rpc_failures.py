"""Fault injection against the rpc backend: workers die, results don't change.

The backend's failure model (``repro.engine.rpc``) promises two things:

* **Transparency** — a worker lost mid-stream (SIGKILL, torn frame, silent
  hang) is rescheduled on a surviving worker and the run finishes
  *bit-identical* to the serial reference, because every shard task is a
  pure function of its per-user seeds.
* **Boundedness** — a task that keeps losing its worker raises
  :class:`~repro.errors.WorkerLostError` after ``max_retries`` re-dispatches;
  failures surface within the configured deadline, they never hang.

This file kills live workers every way the coordinator must survive —
mid-task suicide, the same task dying on every dispatch, a torn result
frame followed by ``os._exit``, an external ``kill -9`` between runs — and
closes with a Hypothesis property that re-executing *any* subset of shards
(what a retry does) merges into exactly the reference server state.
"""

import os
import signal
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.engine.sharding as sharding
from repro.core.mechanisms.base import ReleaseBatch
from repro.engine import PrivacyEngine
from repro.engine.rpc import RpcBackend
from repro.engine.sharding import ShardPlan, _shard_tasks
from repro.errors import ReproError, WorkerLostError
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like
from repro.server.pipeline import Server, run_release_rounds_batched

N_SHARDS = 7

# Everything shipped to a worker must be module-level (pickled by
# module+qualname); the kill switches below are armed through marker files
# and the environment because closures cannot cross the wire.

_KILL_MARKER_ENV = "REPRO_TEST_RPC_KILL_MARKER"
_real_execute_shard = sharding._execute_shard


def _square(x):
    return x * x


def _sleepy_square(x):
    time.sleep(1.2)
    return x * x


def _always_die(x):
    os.kill(os.getpid(), signal.SIGKILL)


def _suicide_once(task):
    """Square ``x``, but the first worker to claim the marker dies instead."""
    marker, x = task
    try:
        with open(marker, "x"):
            os.kill(os.getpid(), signal.SIGKILL)
    except FileExistsError:
        pass
    return x * x


def _execute_shard_killing_once(task):
    """Real shard execution, except the first claimant of the env marker
    SIGKILLs itself mid-round — the release-pipeline version of
    :func:`_suicide_once`."""
    marker = os.environ.get(_KILL_MARKER_ENV)
    if marker:
        try:
            with open(marker, "x"):
                os.kill(os.getpid(), signal.SIGKILL)
        except FileExistsError:
            pass
    return _real_execute_shard(task)


@pytest.fixture(scope="module")
def world():
    return GridWorld(6, 6)


@pytest.fixture(scope="module")
def db(world):
    return geolife_like(world, n_users=12, horizon=8, rng=5)


@pytest.fixture(scope="module")
def engine(world):
    return PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)


@pytest.fixture(scope="module")
def reference(world, db, engine):
    return run_release_rounds_batched(world, db, engine, rng=7, shards=1, backend="serial")


def _state(server):
    checkins = sorted((c.time, c.user, c.cell) for c in server.released_db.checkins())
    ledger = {u: server.ledger.spent(u) for u in server.released_db.users()}
    return checkins, ledger


class TestWorkerDeath:
    def test_kill_once_mid_stream_is_retried_transparently(self, tmp_path):
        marker = str(tmp_path / "kill-once")
        losses = []
        with RpcBackend(workers=2, worker_timeout=10.0, retry_backoff=0.01) as backend:
            got = sorted(
                backend.run_unordered(
                    _suicide_once,
                    [(marker, i) for i in range(6)],
                    on_worker_lost=lambda index, attempt: losses.append((index, attempt)),
                )
            )
        assert got == [(i, i * i) for i in range(6)]
        assert losses and all(attempt == 1 for _, attempt in losses)

    def test_sigkill_mid_release_round_matches_serial(
        self, world, db, engine, reference, tmp_path, monkeypatch
    ):
        # The headline deliverable: a worker SIGKILLed halfway through a
        # live release round, and the finished run is still element-wise
        # identical to the serial reference — releases, ledger, everything.
        marker = str(tmp_path / "round-kill")
        monkeypatch.setenv(_KILL_MARKER_ENV, marker)
        monkeypatch.setattr(sharding, "_execute_shard", _execute_shard_killing_once)
        with RpcBackend(workers=2, worker_timeout=10.0, retry_backoff=0.01) as backend:
            server = run_release_rounds_batched(
                world, db, engine, rng=7, shards=5, backend=backend
            )
        assert os.path.exists(marker), "no worker ever armed the kill"
        assert _state(server) == _state(reference)

    def test_retry_exhaustion_raises_original_not_hang(self):
        with RpcBackend(
            workers=2, worker_timeout=10.0, max_retries=2, retry_backoff=0.01
        ) as backend:
            start = time.monotonic()
            with pytest.raises(WorkerLostError, match="task 0") as excinfo:
                backend.run(_always_die, [0])
            elapsed = time.monotonic() - start
            # Death is detected by EOF, so exhaustion is spawn-bound, never
            # timeout-bound: well inside a minute even on a loaded 1-cpu box.
            assert elapsed < 60.0
            assert "retries exhausted" in str(excinfo.value)
            assert "max_retries=2" in str(excinfo.value)
            # The exhausted call must not poison the cluster.
            assert backend.run(_square, [4]) == [16]

    def test_torn_result_frame_is_retried(self, tmp_path):
        # Chaos mode: the first worker to produce a result sends half the
        # frame and exits.  The coordinator must classify the torn frame as
        # a worker loss and re-run that task elsewhere.
        marker = str(tmp_path / "torn")
        losses = []
        with RpcBackend(
            workers=2,
            worker_timeout=10.0,
            retry_backoff=0.01,
            worker_args=["--chaos", "torn-result", "--chaos-marker", marker],
        ) as backend:
            got = sorted(
                backend.run_unordered(
                    _square,
                    list(range(5)),
                    on_worker_lost=lambda index, attempt: losses.append((index, attempt)),
                )
            )
        assert got == [(i, i * i) for i in range(5)]
        assert losses, "the torn frame was never observed as a loss"

    def test_heartbeat_keeps_slow_worker_alive(self):
        # worker_timeout is a *liveness* deadline, not a task deadline: a
        # task that computes for 2x the timeout survives because heartbeats
        # keep flowing from the worker's side thread.
        losses = []
        with RpcBackend(workers=2, worker_timeout=0.6) as backend:
            got = sorted(
                backend.run_unordered(
                    _sleepy_square,
                    [3, 4],
                    on_worker_lost=lambda index, attempt: losses.append((index, attempt)),
                )
            )
        assert got == [(0, 9), (1, 16)]
        assert losses == []

    def test_external_sigkill_between_runs_respawns(self):
        with RpcBackend(workers=2, worker_timeout=10.0, retry_backoff=0.01) as backend:
            assert backend.run(_square, [1, 2]) == [1, 4]
            pids = backend.worker_pids()
            assert len(pids) == 2
            os.kill(pids[0], signal.SIGKILL)
            # The next run discovers the corpse (EOF or failed send),
            # reschedules, and backfills the cluster.
            assert backend.run(_square, list(range(8))) == [i * i for i in range(8)]
            survivors = backend.worker_pids()
            assert pids[0] not in survivors

    def test_worker_lost_error_is_a_repro_error(self):
        assert issubclass(WorkerLostError, ReproError)
        from repro import errors

        assert errors.WorkerLostError is WorkerLostError


# ----------------------------------------------------------------------
# any retried subset merges bit-identically (property)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def shard_runs(world, db, engine):
    """One serial execution of every shard task — the retry baseline."""
    plan = ShardPlan.build(sorted(db.users()), N_SHARDS, rng=7)
    tasks = _shard_tasks(engine, db, plan)
    first = [_real_execute_shard(task) for task in tasks]
    return tasks, first


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(retried=st.sets(st.integers(min_value=0, max_value=N_SHARDS - 1)))
def test_any_retried_subset_merges_bit_identically(
    world, reference, shard_runs, retried
):
    # What a retry actually does is re-execute a pure shard task from its
    # seeds.  For ANY subset of shards, the re-execution is byte-for-byte
    # the first execution, so splicing re-runs over originals and ingesting
    # yields exactly the reference server state — which is why the rpc
    # backend may reschedule an arbitrary set of in-flight shards without
    # ever changing the output.
    tasks, first = shard_runs
    rerun = {index: _real_execute_shard(tasks[index]) for index in retried}
    for index, redo in rerun.items():
        points, exact, epsilons, mechanism = first[index]
        assert np.array_equal(redo[0], points)
        assert np.array_equal(redo[1], exact)
        assert np.array_equal(redo[2], epsilons)
        assert redo[3] == mechanism
    server = Server(world)
    for index, task in enumerate(tasks):
        points, exact, epsilons, mechanism = rerun.get(index, first[index])
        server.ingest_shard(
            task.rows.row_users,
            task.rows.times,
            ReleaseBatch(
                points=points,
                exact=exact,
                epsilons=epsilons,
                cells=task.rows.cells,
                mechanism=mechanism,
            ),
        )
    assert _state(server) == _state(reference)
