"""Failure injection across the distributed stack.

A shard that dies mid-stream must not take the process down quietly, leak a
worker pool, or leave the server half-written: the *original* exception
propagates through the `pool` backend, backends owned by the
failing call are closed behind it, and async ingestion commits whole shards
or nothing — so a crashed run leaves only complete per-user state behind.
"""

import threading
import time

import numpy as np
import pytest

from repro.engine import (
    MetricShardResult,
    PoolBackend,
    PrivacyEngine,
    register_backend,
    sharded_metric,
)
from repro.errors import CommitStalledError, ReproError, ValidationError
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like
from repro.mobility.trajectory import TraceDB
from repro.server.pipeline import (
    AsyncShardCommitter,
    Server,
    run_release_rounds_batched,
)


class ShardExploded(RuntimeError):
    """Marker exception that must cross process boundaries intact."""


def _explode_on_marked(task):
    """Scorer that succeeds on plain ints and raises on the marked task."""
    if task == "boom":
        raise ShardExploded("shard boom exploded mid-stream")
    return MetricShardResult(
        sums={"error": np.array([float(task)])}, counts=np.array([1]), flows={}
    )


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
            sharded_metric(_explode_on_marked, [1, 2, "boom", 4], backend=backend)

    def test_owned_pool_closed_on_failure(self):
        register_backend("failure_recording_pool", _RecordingPool)
        _RecordingPool.instances.clear()
        with pytest.raises(ShardExploded):
            sharded_metric(
                _explode_on_marked, [1, "boom", 3], backend="failure_recording_pool"
            )
        assert len(_RecordingPool.instances) == 1
        assert _RecordingPool.instances[0].closed

    def test_live_pool_survives_and_stays_open(self):
        # A caller-owned pool is the caller's to close: the failing call
        # must neither close it nor poison it for the next call.
        with PoolBackend(max_workers=2) as pool:
            with pytest.raises(ShardExploded):
                sharded_metric(_explode_on_marked, [1, "boom"], backend=pool)
            merged = sharded_metric(_explode_on_marked, [5, 6], backend=pool)
            assert merged.sums["error"].tolist() == [5.0, 6.0]


class TestAsyncIngestFailures:
    @pytest.mark.parametrize("backend", ["pool"])
    def test_failing_shard_leaves_whole_user_state(self, world, engine, backend):
        # One user's trace contains an invalid cell, so exactly one shard's
        # release raises inside the worker mid-stream.  The stream must fail
        # with the original error while every user the server *did* commit
        # is complete — async shards are all-or-nothing.  (No assertion on
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
            with server.async_committer(max_pending=2) as committer:
                for users, times, batch in stream_shard_releases(
                    engine, bad_db, plan, backend=backend
                ):
                    committer.submit(users, times, batch)
        committed = server.released_db.users()
        assert 6 not in committed
        for user in committed:
            history = server.released_db.user_history(user)
            assert len(history) == len(bad_db.user_history(user))
            charges = [e for e in server.ledger.entries if e.user == user]
            assert len(charges) == len(history)

    def test_async_pipeline_propagates_shard_error(self, world, engine):
        bad_db = TraceDB()
        bad_db.record(1, 0, 3)
        bad_db.record(2, 0, -7)  # invalid cell
        with pytest.raises(ReproError):
            run_release_rounds_batched(
                world, bad_db, engine, rng=0, shards=2, backend="pool",
                async_ingest=True,
            )

    def test_partial_run_commits_only_whole_shards(self, world, engine):
        # Drive the committer directly with a producer that dies after two
        # shards: both submitted shards commit whole, nothing else appears.
        db = geolife_like(world, n_users=4, horizon=5, rng=2)
        from repro.engine import ShardPlan, stream_shard_releases

        plan = ShardPlan.build(sorted(db.users()), 4, rng=1)
        server = Server(world)
        with pytest.raises(ShardExploded):
            with server.async_committer(max_pending=2) as committer:
                for index, (users, times, batch) in enumerate(
                    stream_shard_releases(engine, db, plan, backend="serial")
                ):
                    if index == 2:
                        raise ShardExploded("producer died")
                    committer.submit(users, times, batch)
        committed = server.released_db.users()
        assert len(committed) == 2  # two whole single-user shards
        for user in committed:
            assert len(server.released_db.user_history(user)) == len(db.user_history(user))
            assert server.ledger.spent(user) > 0

    def test_commit_error_propagates_to_producer(self, world, engine):
        class FailingServer(Server):
            def __init__(self, world):
                super().__init__(world)
                self.commits = 0

            def ingest_shard(self, users, times, batch, purpose="stream", shard=None):
                self.commits += 1
                if self.commits == 2:
                    raise ShardExploded("commit blew up")
                return super().ingest_shard(users, times, batch, purpose=purpose, shard=shard)

        server = FailingServer(world)
        shard = ([1], [0], engine.release_batch([3], rng=0))
        with pytest.raises(ShardExploded, match="commit blew up"):
            with server.async_committer(max_pending=1) as committer:
                for _ in range(8):
                    committer.submit(*shard)
        # The failed commit was discarded whole; only commit #1 landed.
        assert len(server.ledger.entries) == 1

    def test_submit_after_close_rejected(self, world, engine):
        server = Server(world)
        committer = server.async_committer(max_pending=1)
        committer.close()
        with pytest.raises(ValidationError):
            committer.submit([1], [0], engine.release_batch([3], rng=0))
        committer.close()  # idempotent

    def test_invalid_queue_depth_rejected(self, world):
        with pytest.raises(ValidationError):
            AsyncShardCommitter(Server(world), max_pending=0)

    def test_producer_error_wins_over_commit_error(self, world, engine):
        class FailingServer(Server):
            def ingest_shard(self, users, times, batch, purpose="stream", shard=None):
                raise ShardExploded("commit error")

        server = FailingServer(world)
        with pytest.raises(KeyError, match="producer"):
            with server.async_committer() as committer:
                committer.submit([1], [0], engine.release_batch([3], rng=0))
                # Give the committer time to fail before the producer does.
                threading.Event().wait(0.05)
                raise KeyError("producer")


class TestCommitterShutdown:
    """The shutdown contract: a pending worker error always surfaces.

    Regression coverage for the committer's close/submit ordering — an
    error raised by the background thread after the *last* ``put`` must be
    re-raised by ``close()`` even though the queue is empty by then, and a
    ``submit`` racing a failed shutdown must re-raise that original error
    rather than mask it with the generic "closed committer" misuse report.
    """

    @staticmethod
    def _failing_server(world):
        class FailingServer(Server):
            def ingest_shard(self, users, times, batch, purpose="stream", shard=None):
                raise ShardExploded("commit blew up")

        return FailingServer(world)

    @staticmethod
    def _wait_until_drained(committer):
        for _ in range(200):
            if committer.pending == 0:
                break
            threading.Event().wait(0.005)
        # One more beat so the worker finishes the dequeued item too.
        threading.Event().wait(0.02)

    def test_close_reraises_error_on_empty_queue(self, world, engine):
        server = self._failing_server(world)
        committer = server.async_committer(max_pending=2)
        committer.submit([1], [0], engine.release_batch([3], rng=0))
        self._wait_until_drained(committer)
        assert committer.pending == 0
        with pytest.raises(ShardExploded, match="commit blew up"):
            committer.close()

    def test_context_exit_reraises_error_after_last_submit(self, world, engine):
        server = self._failing_server(world)
        with pytest.raises(ShardExploded, match="commit blew up"):
            with server.async_committer(max_pending=2) as committer:
                committer.submit([1], [0], engine.release_batch([3], rng=0))
                self._wait_until_drained(committer)
                # Producer finishes cleanly; only close() can surface it.

    def test_submit_after_failed_close_reraises_commit_error(self, world, engine):
        # The masking regression: submit() used to check _closed before
        # _error, so after a failed close the real ShardExploded came back
        # as a ValidationError("cannot submit to a closed committer").
        server = self._failing_server(world)
        committer = server.async_committer(max_pending=2)
        committer.submit([1], [0], engine.release_batch([3], rng=0))
        self._wait_until_drained(committer)
        with pytest.raises(ShardExploded):
            committer.close()
        with pytest.raises(ShardExploded, match="commit blew up"):
            committer.submit([1], [0], engine.release_batch([3], rng=0))

    def test_plain_close_on_clean_committer_still_rejects_submit(self, world, engine):
        server = Server(world)
        committer = server.async_committer(max_pending=1)
        committer.close()
        with pytest.raises(ValidationError):
            committer.submit([1], [0], engine.release_batch([3], rng=0))

    def test_suppressed_commit_error_noted_on_producer_exception(self, world, engine):
        server = self._failing_server(world)
        with pytest.raises(KeyError, match="producer") as excinfo:
            with server.async_committer() as committer:
                committer.submit([1], [0], engine.release_batch([3], rng=0))
                self._wait_until_drained(committer)
                raise KeyError("producer")
        notes = getattr(excinfo.value, "__notes__", [])
        assert any("ShardExploded" in note for note in notes)


class TestCommitterLiveness:
    """close() never blocks forever: a wedged drain raises, naming the shards.

    Regression coverage for the hang this replaced — a commit stuck inside a
    dead store handle (or any ingest that never returns) used to wedge
    ``close()`` on an unbounded ``join``, turning a diagnosable failure into
    a silent pipeline stall.
    """

    @staticmethod
    def _wedged_server(world, block_for=60.0):
        class WedgedServer(Server):
            def ingest_shard(self, *args, **kwargs):
                time.sleep(block_for)

        return WedgedServer(world)

    def test_wedged_commit_close_raises_naming_pending_shards(self, world, engine):
        committer = AsyncShardCommitter(
            self._wedged_server(world), max_pending=2, close_timeout=0.5
        )
        committer.submit([1], [0], engine.release_batch([3], rng=0), shard=7)
        committer.submit([2], [0], engine.release_batch([4], rng=0), shard=9)
        start = time.monotonic()
        with pytest.raises(CommitStalledError, match="failed to drain") as excinfo:
            committer.close()
        assert time.monotonic() - start < 5.0
        # The error must name the wedged shards so the stall is actionable.
        assert "7" in str(excinfo.value)
        assert "9" in str(excinfo.value)

    def test_wedged_commit_close_with_full_queue_still_returns(self, world, engine):
        # Queue full + drain thread wedged is the worst case: the close
        # sentinel cannot even be enqueued.  close() must still come back.
        committer = AsyncShardCommitter(
            self._wedged_server(world), max_pending=1, close_timeout=0.5
        )
        committer.submit([1], [0], engine.release_batch([3], rng=0), shard=0)
        # The drain thread has dequeued shard 0 and wedged; fill the queue.
        committer.submit([2], [0], engine.release_batch([4], rng=0), shard=1)
        start = time.monotonic()
        with pytest.raises(CommitStalledError):
            committer.close()
        assert time.monotonic() - start < 5.0

    def test_close_timeout_must_be_positive(self, world):
        with pytest.raises(ValidationError):
            AsyncShardCommitter(Server(world), close_timeout=0.0)

    def test_eventually_draining_commit_closes_clean(self, world, engine):
        # A *slow* commit is not a stall: a second close() after the wedge
        # clears succeeds (and would surface any commit error).
        server = self._wedged_server(world, block_for=0.3)
        committer = AsyncShardCommitter(server, max_pending=2, close_timeout=0.05)
        committer.submit([1], [0], engine.release_batch([3], rng=0), shard=4)
        with pytest.raises(CommitStalledError):
            committer.close()
        deadline = time.monotonic() + 10.0
        while committer.pending and time.monotonic() < deadline:
            time.sleep(0.01)
        committer.close(timeout=5.0)  # drained now: no error to report
