"""Failure injection across the distributed stack.

A shard that dies mid-stream must not take the process down quietly, leak a
worker pool, or leave the server half-written: the *original* exception
propagates through the `pool` backend, backends owned by the
failing call are closed behind it, and `Server.ingest_shard` commits whole
shards or nothing — so a crashed run leaves only complete per-user state
behind, and a store-backed one resumes from it.
"""

import numpy as np
import pytest

from repro.engine import PoolBackend, PrivacyEngine, owned_backend, register_backend
from repro.errors import ReproError
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like
from repro.mobility.trajectory import TraceDB
from repro.server.pipeline import Server


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


@pytest.fixture(scope="module")
def world():
    return GridWorld(6, 6)


@pytest.fixture(scope="module")
def engine(world):
    return PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)


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
