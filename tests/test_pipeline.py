"""Unit tests for the client/server release pipeline."""

import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from time import perf_counter, sleep

import numpy as np
import pytest

from repro.core.mechanisms import PolicyLaplaceMechanism
from repro.core.policies import area_policy, contact_tracing_policy, full_disclosure_policy, grid_policy
from repro.engine import PrivacyEngine, ShardPlan, stream_shard_releases
from repro.errors import DataError, PolicyError, ValidationError
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like
from repro.server.live_metrics import default_views, expected_coverage
from repro.server.pipeline import Client, Server, _true_cells, run_release_rounds
from repro.store import RunManifest, TraceStore


@pytest.fixture
def world():
    return GridWorld(6, 6)


@pytest.fixture
def client(world):
    return Client(
        user=1,
        world=world,
        mechanism_factory=PolicyLaplaceMechanism,
        epsilon=1.0,
        policy=grid_policy(world),
        window=48,
        rng=0,
    )


class TestClient:
    def test_observe_and_release(self, client):
        client.observe(0, 14)
        release = client.release(0)
        assert not release.exact
        assert release.epsilon == 1.0

    def test_release_without_observation(self, client):
        with pytest.raises(DataError):
            client.release(5)

    def test_policy_swap_rebuilds_mechanism(self, world, client):
        old_mechanism = client.mechanism
        client.accept_policy(area_policy(world, 2, 2))
        assert client.mechanism is not old_mechanism
        assert client.policy.name.startswith("area")

    def test_reject_policy_stops_releases(self, client):
        client.observe(0, 14)
        client.reject_policy()
        with pytest.raises(PolicyError):
            client.release(0)
        with pytest.raises(PolicyError):
            _ = client.policy

    def test_resend_history_under_gc(self, world, client):
        for time, cell in enumerate([10, 11, 12]):
            client.observe(time, cell)
        gc = contact_tracing_policy(grid_policy(world), [11])
        resent = client.resend_history(gc, start=0, end=2)
        assert len(resent) == 3
        by_time = dict(resent)
        assert by_time[1].exact  # infected cell disclosed
        assert not by_time[0].exact

    def test_local_db_prunes(self, world):
        client = Client(1, world, PolicyLaplaceMechanism, 1.0, grid_policy(world), window=2, rng=0)
        client.observe(0, 1)
        client.observe(1, 2)
        client.observe(2, 3)
        assert client.local_db.times() == [1, 2]


class TestServer:
    def test_ingest_snaps_and_charges(self, world, client):
        server = Server(world)
        client.observe(0, 14)
        release = client.release(0)
        cell = server.ingest(1, 0, release)
        assert cell in world
        assert server.released_db.location(1, 0) == cell
        assert server.ledger.spent(1) == pytest.approx(1.0)

    def test_exact_release_free(self, world):
        client = Client(
            2, world, PolicyLaplaceMechanism, 1.0, full_disclosure_policy(world), rng=0
        )
        server = Server(world)
        client.observe(0, 7)
        cell = server.ingest(2, 0, client.release(0))
        assert cell == 7
        assert server.ledger.spent(2) == 0.0

    def test_push_policy(self, world, client):
        server = Server(world)
        server.push_policy(client, area_policy(world, 3, 3))
        assert client.policy.name.startswith("area")


class TestIntegerColumns:
    """A float or bool integer column is refused at ingest, never truncated."""

    CASES = [
        pytest.param("users", [0.5, 1.7], [0, 0], None, id="users-float"),
        pytest.param("users", [True, False], [0, 0], None, id="users-bool"),
        pytest.param("times", [0, 1], [0.9, 0.2], None, id="times-float"),
        pytest.param("batch.cells", [0, 1], [0, 0], [1.9, 2.0], id="cells-float"),
        pytest.param("batch.cells", [0, 1], [0, 0], [True, 3], id="cells-bool-in-list"),
    ]

    @pytest.fixture
    def batch(self, world):
        engine = PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)
        return engine.release_batch(np.array([3, 5]), rng=0)

    @pytest.mark.parametrize("column, users, times, cells", CASES)
    def test_store_backed_ingest_writes_nothing(self, world, batch, column, users, times, cells):
        # Truncated, users [0.5, 1.7] at times [0.9, 0.2] were stored and
        # charged as users 0 and 1 at time 0.
        if cells is not None:
            batch = replace(batch, cells=cells)
        with TraceStore(":memory:") as store:
            server = Server(world, store=store)
            with pytest.raises(ValidationError, match=f"^{re.escape(column)} must be integers"):
                server.ingest_shard(users, times, batch, shard=0)
            assert len(store) == 0 and not store.committed()
            assert len(server.ledger) == 0 and len(server.released_db) == 0

    @pytest.mark.parametrize("column, users, times, cells", CASES)
    def test_live_ingest_folds_nothing(self, world, batch, column, users, times, cells):
        if cells is not None:
            batch = replace(batch, cells=cells)
        server = Server(world)
        server.attach_metrics(default_views(world), {0: frozenset({0, 1})})
        with pytest.raises(ValidationError, match=f"^{re.escape(column)} must be integers"):
            server.ingest_shard(users, times, batch, shard=0)
        assert len(server.ledger) == 0 and len(server.released_db) == 0
        assert server.metrics.frozen_rounds == ()


class TestGroundTruthOutsideWorld:
    """A ground-truth cell outside the world is refused before anything is written."""

    WORLD = GridWorld(4, 4)
    USERS, TIMES = [0, 1, 0, 1], [0, 0, 1, 1]

    @classmethod
    def _batch(cls, first_cell):
        engine = PrivacyEngine.from_spec(cls.WORLD, mechanism="P-LM", policy="G1", epsilon=1.0)
        return replace(
            engine.release_batch(np.array([3, 3, 3, 2]), rng=0),
            cells=np.array([first_cell, 3, 3, 2]),
        )

    @staticmethod
    def _untouched(server, store):
        assert len(server.released_db) == 0 and len(server.ledger) == 0
        assert server.metrics.frozen_rounds == ()
        if store is not None:
            assert len(store) == 0 and not store.committed()
            assert store.connection.execute("SELECT COUNT(*) FROM round_blocks").fetchone() == (0,)

    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "store"])
    @pytest.mark.parametrize("cell", [16, -1])
    def test_ingest_refuses_before_writing(self, cell, durable):
        # Unchecked, the rows, the ledger entries and (durably) the commit
        # marks and true-side blocks landed before the E1 fold raised.
        store = TraceStore(":memory:") if durable else None
        server = Server(self.WORLD, store=store)
        server.attach_metrics(default_views(self.WORLD, 2, 2), {0: frozenset({0, 1})})
        with pytest.raises(ValidationError, match="cell id out of range in batch.cells"):
            server.ingest_shard(self.USERS, self.TIMES, self._batch(cell), shard=0)
        self._untouched(server, store)

    @pytest.mark.parametrize("cell", [16, -1])
    def test_replay_refuses_before_writing(self, cell):
        with TraceStore(":memory:") as store:
            Server(self.WORLD, store=store).ingest_shard(
                self.USERS, self.TIMES, self._batch(3), shard=0
            )
            server = Server(self.WORLD, store=store)
            server.attach_metrics(default_views(self.WORLD, 2, 2), {0: frozenset({0, 1})})
            with pytest.raises(ValidationError, match="cell id out of range in true_cells"):
                server.replay_shard(
                    0, 1, shard=0, true_cells=lambda users, times: np.full(len(users), cell)
                )
            assert len(server.released_db) == 0 and len(server.ledger) == 0
            assert server.metrics.frozen_rounds == ()


class TestTrueCells:
    """A resume's replay resolves ground-truth cells from the true trace's columns."""

    def test_resolves_each_row_in_row_order(self, world):
        db = geolife_like(world, n_users=5, horizon=6, rng=4)
        checkins = list(db.checkins())[::-1]
        users = [c.user for c in checkins]
        times = [c.time for c in checkins]
        assert _true_cells(db, users, times).tolist() == [c.cell for c in checkins]

    def test_row_missing_from_the_trace_names_the_row(self, world):
        db = geolife_like(world, n_users=5, horizon=6, rng=4)
        with pytest.raises(DataError, match=r"stored release row \(2, 6\) has no ground-truth"):
            _true_cells(db, [0, 2, 3], [1, 6, 2])
        with pytest.raises(DataError, match=r"stored release row \(9, 0\)"):
            _true_cells(db, [4, 9], [5, 0])


class TestRunReleaseRounds:
    def test_full_population(self, world):
        db = geolife_like(world, n_users=6, horizon=12, rng=1)
        server, clients = run_release_rounds(
            world, db, grid_policy(world), PolicyLaplaceMechanism, epsilon=1.0, rng=2, window=12
        )
        assert set(clients) == set(db.users())
        assert server.released_db.users() == db.users()
        assert len(server.released_db) == len(db)
        # Every user paid epsilon per release.
        for user in db.users():
            assert server.ledger.spent(user) == pytest.approx(12 * 1.0)

    def test_empty_db_rejected(self, world):
        from repro.mobility.trajectory import TraceDB

        with pytest.raises(DataError):
            run_release_rounds(world, TraceDB(), grid_policy(world), PolicyLaplaceMechanism, 1.0)

    def test_deterministic_with_seed(self, world):
        db = geolife_like(world, n_users=3, horizon=6, rng=3)
        a, _ = run_release_rounds(world, db, grid_policy(world), PolicyLaplaceMechanism, 1.0, rng=7, window=6)
        b, _ = run_release_rounds(world, db, grid_policy(world), PolicyLaplaceMechanism, 1.0, rng=7, window=6)
        assert list(a.released_db.checkins()) == list(b.released_db.checkins())


class TestIngestLock:
    """``Server.ingest_shard`` callers on different threads commit one at a time.

    The server's ingest lock serializes the store transaction, the trace
    and ledger updates and the live fold, so shards committed from
    concurrent threads leave exactly the state of a serial ingest.
    """

    SHARDS = 4

    @pytest.fixture(scope="class")
    def run(self):
        world = GridWorld(6, 6)
        engine = PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)
        db = geolife_like(world, n_users=12, horizon=6, rng=4)
        plan = ShardPlan.build(sorted(db.users()), self.SHARDS, rng=8)
        shards = [
            (plan.shard_of(int(users[0])), users, times, batch)
            for users, times, batch in stream_shard_releases(engine, db, plan)
        ]
        return world, engine, db, plan, shards

    @staticmethod
    def _state(run, concurrent):
        world, engine, db, plan, shards = run
        spans = []
        with TraceStore(":memory:") as store:
            store.begin_run(
                RunManifest.for_run(engine, plan, world), expected_coverage(plan, db)
            )
            commit_shard = store.commit_shard

            def spanned_commit(*args, **kwargs):
                start = perf_counter()
                sleep(0.005)  # an unserialized caller would enter meanwhile
                try:
                    return commit_shard(*args, **kwargs)
                finally:
                    spans.append((start, perf_counter()))

            store.commit_shard = spanned_commit
            server = Server(world, store=store)
            server.attach_metrics(default_views(world), expected_coverage(plan, db))
            if concurrent:
                barrier = threading.Barrier(len(shards))

                def commit(shard):
                    shard_id, users, times, batch = shard
                    barrier.wait(timeout=10)
                    server.ingest_shard(users, times, batch, shard=shard_id)

                with ThreadPoolExecutor(max_workers=len(shards)) as pool:
                    list(pool.map(commit, shards))
            else:
                for shard_id, users, times, batch in shards:
                    server.ingest_shard(users, times, batch, shard=shard_id)
            rows = sorted(
                store.connection.execute(
                    "SELECT user, time, cell, x, y, exact, epsilon FROM releases"
                ).fetchall()
            )
        totals = {user: server.ledger.spent(user) for user in sorted(db.users())}
        metrics = {r: dict(server.metrics_at(r)) for r in server.metrics.rounds}
        return rows, totals, metrics, sorted(spans)

    def test_concurrent_ingest_equals_serial(self, run):
        rows, totals, metrics, spans = self._state(run, concurrent=True)
        want_rows, want_totals, want_metrics, _ = self._state(run, concurrent=False)
        # The four store commits ran one at a time, never overlapping.
        assert len(spans) == self.SHARDS
        assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))
        assert len(rows) == len(run[2])
        assert rows == want_rows
        assert totals == want_totals
        assert sorted(metrics) == sorted(want_metrics) == sorted(run[2].times())
        assert metrics == want_metrics
