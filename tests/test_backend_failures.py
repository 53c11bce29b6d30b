"""Failure injection across the distributed stack.

A shard that dies mid-stream must not take the process down quietly, leak a
worker pool, or leave the server half-written: the *original* exception
propagates through the `pool` backend, backends owned by the
failing call are closed behind it, and `Server.ingest_shard` commits whole
shards or nothing — so a crashed run leaves only complete per-user state
behind, and a store-backed one resumes from it.

A *worker* that dies is different: the pool reruns the tasks it has not yet
yielded on a fresh executor, and the run finishes bit-identical to serial,
because every shard task is a pure function of its per-user seeds
(`TestWorkerLoss`, and the closing property that re-executing any subset
of shards ingests into exactly the reference state).
"""

import os
import re
import signal
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.engine.sharding as sharding
from repro.core.mechanisms.base import ReleaseBatch
from repro.engine import PoolBackend, PrivacyEngine, owned_backend, register_backend
from repro.engine.sharding import ShardPlan, _shard_tasks
from repro.errors import ReproError, WorkerLostError
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like
from repro.mobility.trajectory import TraceDB
from repro.server.pipeline import Server, run_release_rounds_batched
from repro.store import TraceStore

N_SHARDS = 7


class ShardExploded(RuntimeError):
    """Marker exception that must cross process boundaries intact."""


def _explode_on_marked(task):
    """Scorer that succeeds on plain ints and raises on the marked task."""
    if task == "boom":
        raise ShardExploded("shard boom exploded mid-stream")
    return np.array([float(task)])


class _RecordingPool(PoolBackend):
    """Pool backend whose close() calls are observable."""

    instances: list = []

    def __init__(self):
        super().__init__(max_workers=2)
        self.closed = False
        _RecordingPool.instances.append(self)

    def close(self):
        self.closed = True
        super().close()


# Everything shipped to a pool worker is module-level (pickled by
# module + qualname); the kill switches are armed through marker files,
# claimed with O_EXCL so exactly one worker dies per marker.

_KILL_MARKER_ENV = "REPRO_TEST_POOL_KILL_MARKER"
_real_execute_shard = sharding._execute_shard


def _claim(marker):
    try:
        with open(marker, "x"):
            return True
    except FileExistsError:
        return False


def _square(x):
    return x * x


def _pid(_):
    return os.getpid()


def _kill_on_three_once(task):
    """Square ``x``; the worker that runs ``x == 3`` first dies instead."""
    marker, x = task
    if x == 3 and _claim(marker):
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def _kill_on_zero(x):
    """Square ``x``; task 0 kills every worker it lands on."""
    if x == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def _execute_shard_killing_once(task):
    """Real shard execution, except the worker that first runs shard 2 of
    the armed run SIGKILLs itself halfway through the round."""
    marker = os.environ.get(_KILL_MARKER_ENV)
    if marker and task.rows.shard == 2 and _claim(marker):
        os.kill(os.getpid(), signal.SIGKILL)
    return _real_execute_shard(task)


@pytest.fixture(scope="module")
def world():
    return GridWorld(6, 6)


@pytest.fixture(scope="module")
def engine(world):
    return PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)


@pytest.fixture(scope="module")
def db(world):
    return geolife_like(world, n_users=12, horizon=8, rng=5)


@pytest.fixture(scope="module")
def reference(world, db, engine):
    return run_release_rounds_batched(world, db, engine, rng=7, shards=1, backend="serial")


def _state(server):
    """Every released row and every user's spend: the run's whole output."""
    arrays = [column.tolist() for column in server.released_db.to_arrays()]
    ledger = {u: server.ledger.spent(u) for u in server.released_db.users()}
    return arrays, ledger


def _store_rows(store):
    return [
        store.connection.execute(f"SELECT * FROM {table} ORDER BY 1, 2").fetchall()
        for table in ("releases", "round_blocks", "user_summary")
    ]


class TestScorerFailures:
    @pytest.mark.parametrize("backend", ["pool"])
    def test_original_exception_propagates(self, backend):
        # The marked task sits mid-list: earlier tasks succeed, and the
        # caller must still see the original exception type and message.
        with pytest.raises(ShardExploded, match="mid-stream"):
            with owned_backend(backend) as live:
                live.run(_explode_on_marked, [1, 2, "boom", 4])

    def test_owned_pool_closed_on_failure(self):
        register_backend("failure_recording_pool", _RecordingPool)
        _RecordingPool.instances.clear()
        with pytest.raises(ShardExploded):
            with owned_backend("failure_recording_pool") as live:
                live.run(_explode_on_marked, [1, "boom", 3])
        assert len(_RecordingPool.instances) == 1
        assert _RecordingPool.instances[0].closed

    def test_live_pool_survives_and_stays_open(self):
        # A caller-owned pool is the caller's to close: the failing call
        # must neither close it nor poison it for the next call.
        with PoolBackend(max_workers=2) as pool:
            with pytest.raises(ShardExploded):
                with owned_backend(pool) as live:
                    live.run(_explode_on_marked, [1, "boom"])
            with owned_backend(pool) as live:
                results = live.run(_explode_on_marked, [5, 6])
            assert np.concatenate(results).tolist() == [5.0, 6.0]


class TestIngestFailures:
    @pytest.mark.parametrize("backend", ["pool"])
    def test_failing_shard_leaves_whole_user_state(self, world, engine, backend):
        # One user's trace contains an invalid cell, so exactly one shard's
        # release raises inside the worker mid-stream.  The stream must fail
        # with the original error while every user the server *did* commit
        # is complete — shard commits are all-or-nothing.  (No assertion on
        # *which* users landed: arrival order is backend scheduling; the
        # invariant is per-user completeness.)
        from repro.engine import ShardPlan, stream_shard_releases

        bad_db = TraceDB()
        for user in range(6):
            for time in range(4):
                bad_db.record(user, time, 3 + user)
        bad_db.record(6, 0, -7)  # invalid cell: that shard's release raises
        plan = ShardPlan.build(sorted(bad_db.users()), 7, rng=0)
        server = Server(world)
        with pytest.raises(ReproError):
            for users, times, batch in stream_shard_releases(
                engine, bad_db, plan, backend=backend
            ):
                server.ingest_shard(users, times, batch)
        committed = server.released_db.users()
        assert 6 not in committed
        for user in committed:
            history = server.released_db.user_history(user)
            assert len(history) == len(bad_db.user_history(user))
            charges = [e for e in server.ledger.entries if e.user == user]
            assert len(charges) == len(history)

    def test_serial_store_run_keeps_the_shards_before_the_failing_one(
        self, world, engine, tmp_path
    ):
        # Serial runs one shard per yield, so when the last shard raises (a
        # cell outside the world) the six before it are already durable, as
        # a pool run's finished shards are.  A plain rerun is refused;
        # resume=True ends where an unbroken run ends.
        from repro.errors import StoreError
        from repro.server.pipeline import run_release_rounds_batched
        from repro.store import TraceStore

        def trace(last_cell):
            db = TraceDB()
            for user in range(6):
                for time in range(4):
                    db.record(user, time, 3 + user)
            db.record(6, 0, last_cell)
            return db

        path = str(tmp_path / "torn.sqlite")
        run = dict(rng=0, shards=7, backend="serial", store=path)
        with pytest.raises(ReproError):
            run_release_rounds_batched(world, trace(world.n_cells), engine, **run)
        with TraceStore(path) as store:
            assert {shard for shard, _ in store.committed()} == set(range(6))
        with pytest.raises(StoreError, match="resume=True"):
            run_release_rounds_batched(world, trace(9), engine, **run)
        resumed = run_release_rounds_batched(world, trace(9), engine, resume=True, **run)
        unbroken = run_release_rounds_batched(world, trace(9), engine, rng=0, shards=7)
        assert sorted(resumed.released_db.checkins()) == sorted(unbroken.released_db.checkins())

    def test_partial_run_commits_only_whole_shards(self, world, engine):
        # Commit through ingest_shard with a producer that dies after two
        # shards: both committed shards are whole, nothing else appears.
        db = geolife_like(world, n_users=4, horizon=5, rng=2)
        from repro.engine import ShardPlan, stream_shard_releases

        plan = ShardPlan.build(sorted(db.users()), 4, rng=1)
        server = Server(world)
        with pytest.raises(ShardExploded):
            for index, (users, times, batch) in enumerate(
                stream_shard_releases(engine, db, plan, backend="serial")
            ):
                if index == 2:
                    raise ShardExploded("producer died")
                server.ingest_shard(users, times, batch)
        committed = server.released_db.users()
        assert len(committed) == 2  # two whole single-user shards
        for user in committed:
            assert len(server.released_db.user_history(user)) == len(db.user_history(user))
            assert server.ledger.spent(user) > 0


class TestWorkerLoss:
    def test_worker_killed_mid_stream_reruns_its_tasks(self, tmp_path):
        with PoolBackend(max_workers=2) as pool:
            unordered = tmp_path / "unordered"
            got = list(pool.run_unordered(_kill_on_three_once, [(str(unordered), i) for i in range(6)]))
            assert sorted(got) == [(i, i * i) for i in range(6)]  # each index once
            ordered = tmp_path / "ordered"
            assert pool.run(_kill_on_three_once, [(str(ordered), i) for i in range(6)]) == [
                i * i for i in range(6)
            ]
        assert unordered.exists() and ordered.exists(), "no worker was killed"

    def test_sigkill_mid_release_round_matches_serial(
        self, world, db, engine, reference, tmp_path, monkeypatch
    ):
        marker = tmp_path / "round-kill"
        monkeypatch.setenv(_KILL_MARKER_ENV, str(marker))
        monkeypatch.setattr(sharding, "_execute_shard", _execute_shard_killing_once)
        with PoolBackend(max_workers=2) as pool:
            server = run_release_rounds_batched(world, db, engine, rng=7, shards=5, backend=pool)
        assert marker.exists(), "no worker was killed"
        assert _state(server) == _state(reference)

    def test_sigkill_mid_store_run_matches_serial_store(
        self, world, db, engine, tmp_path, monkeypatch
    ):
        with TraceStore(":memory:") as store:
            run_release_rounds_batched(world, db, engine, rng=7, shards=5, store=store)
            want = _store_rows(store)
        marker = tmp_path / "store-kill"
        monkeypatch.setenv(_KILL_MARKER_ENV, str(marker))
        monkeypatch.setattr(sharding, "_execute_shard", _execute_shard_killing_once)
        with PoolBackend(max_workers=2) as pool, TraceStore(":memory:") as store:
            run_release_rounds_batched(
                world, db, engine, rng=7, shards=5, backend=pool, store=store
            )
            assert store.parked_pieces() == {}
            got = _store_rows(store)
        assert marker.exists(), "no worker was killed"
        assert got == want

    @pytest.mark.parametrize("tasks", [[0], list(range(6))], ids=["alone", "among-6"])
    def test_worker_killer_task_raises_worker_lost(self, tasks):
        with PoolBackend(max_workers=2) as pool:
            start = time.monotonic()
            with pytest.raises(WorkerLostError) as excinfo:
                pool.run(_kill_on_zero, tasks)
            assert time.monotonic() - start < 60.0
            # Sorted indices, so the killer leads the unfinished list.
            assert re.search(r"unfinished tasks \[0[],]", str(excinfo.value))
            assert type(excinfo.value.__cause__).__name__ == "BrokenProcessPool"
            assert pool.run(_square, [4]) == [16]

    def test_idle_worker_killed_between_runs(self):
        with PoolBackend(max_workers=2) as pool:
            victim = pool.run(_pid, [0])[0]
            os.kill(victim, signal.SIGKILL)
            time.sleep(0.5)  # let the executor see the death before the next submit
            assert pool.run(_square, list(range(8))) == [i * i for i in range(8)]
            victim = pool.run(_pid, [0])[0]
            os.kill(victim, signal.SIGKILL)  # and one it may not have seen yet
            assert sorted(pool.run_unordered(_square, list(range(8)))) == [
                (i, i * i) for i in range(8)
            ]

    def test_task_and_pickling_errors_keep_their_types(self):
        with PoolBackend(max_workers=2) as pool:
            with pytest.raises(ShardExploded):
                pool.run(_explode_on_marked, [1, "boom", 3])
            with pytest.raises(ShardExploded):
                list(pool.run_unordered(_explode_on_marked, ["boom"]))
            with pytest.raises(Exception) as excinfo:
                pool.run(lambda x: x, [1])
            assert not isinstance(excinfo.value, WorkerLostError)
            assert pool.run(_square, [5]) == [25]

    def test_empty_task_list_starts_no_executor(self):
        pool = PoolBackend(max_workers=2)
        assert pool.run(_square, []) == []
        assert list(pool.run_unordered(_square, [])) == []
        assert pool._executor is None

    def test_worker_lost_error_is_a_repro_error(self):
        assert issubclass(WorkerLostError, ReproError)


# ----------------------------------------------------------------------
# any rerun subset merges bit-identically (property)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def shard_runs(db, engine):
    """One serial execution of every shard task — the rerun baseline."""
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
def test_any_retried_subset_merges_bit_identically(world, reference, shard_runs, retried):
    # What a rerun actually does is re-execute a pure shard task from its
    # seeds.  For ANY subset of shards, the re-execution is byte-for-byte
    # the first execution, so splicing re-runs over originals and ingesting
    # yields exactly the reference server state — which is why the pool may
    # rerun an arbitrary set of unfinished shards without ever changing the
    # output.
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
