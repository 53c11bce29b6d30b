"""Unit tests for the durable trace store (`repro/store/`).

Covers the schema/pragma recipe, the run-manifest resume contract, the
transactional shard-commit path (including torn-write WAL recovery), the
``TraceDB``-equivalent read API, the out-of-core view, bulk ledger
charging, and the ExecutionSpec wiring.
"""

import shutil
import sqlite3
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.core.accounting import BudgetLedger
from repro.engine import PrivacyEngine, backend_names
from repro.engine.sharding import ShardPlan, stream_shard_releases
from repro.engine.specs import EngineSpec, ExecutionSpec
from repro.errors import BudgetError, DataError, ResumeMismatchError, StoreError, ValidationError
from repro.geo.grid import GridWorld
from repro.core.mechanisms.base import ReleaseBatch
from repro.mobility.synthetic import geolife_like, gowalla_like
from repro.mobility.trajectory import TraceDB
from repro.query import QueryEngine, Window
from repro.query import reference as ref
from repro.server.live_metrics import expected_coverage
from repro.server.pipeline import Server, _true_cells, run_release_rounds_batched
from repro.store import (
    Coverage,
    PreparedShard,
    RunManifest,
    StoredTraceDB,
    TraceStore,
    accelerator,
    engine_spec_hash,
)
from repro.store.resume import RunManifest as ResumeManifest


#: Every accelerator round block, in key order (the bytes, not just sums).
BLOCKS_SQL = "SELECT kind, time, cells, flows FROM round_blocks ORDER BY kind, time"


def _prepared(users, times, batch, true_cells=None):
    """``batch``'s rows prepared for a direct commit; its ``cells`` are what is stored."""
    return PreparedShard.build(
        users, times, batch.cells, batch.points, batch.exact, batch.epsilons, true_cells=true_cells
    )


@pytest.fixture(scope="module")
def world():
    return GridWorld(6, 6)


@pytest.fixture(scope="module")
def engine(world):
    return PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)


@pytest.fixture(scope="module")
def db(world):
    return geolife_like(world, n_users=8, horizon=10, rng=3)


def _run(world, db, engine, path, **kwargs):
    return run_release_rounds_batched(
        world, db, engine, rng=11, shards=4, backend="serial", store=path, **kwargs
    )


class TestSchemaAndPragmas:
    def test_wal_pragmas_applied(self, tmp_path):
        with TraceStore(tmp_path / "s.sqlite") as store:
            conn = store.connection
            assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
            assert conn.execute("PRAGMA synchronous").fetchone()[0] == 1  # NORMAL
            assert conn.execute("PRAGMA busy_timeout").fetchone()[0] == 30_000
            assert conn.execute("PRAGMA foreign_keys").fetchone()[0] == 1

    def test_tables_exist_and_reopen_is_idempotent(self, tmp_path):
        path = tmp_path / "s.sqlite"
        for _ in range(2):  # second open must not error or duplicate
            with TraceStore(path) as store:
                names = {
                    row[0]
                    for row in store.connection.execute(
                        "SELECT name FROM sqlite_master WHERE type='table'"
                    )
                }
            assert {"meta", "releases", "shard_commits"} <= names

    def test_schema_version_mismatch_refuses_open(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with TraceStore(path) as store:
            with store.connection:
                store.connection.execute(
                    "UPDATE meta SET value='999' WHERE key='schema_version'"
                )
        with pytest.raises(StoreError, match="schema v999"):
            TraceStore(path)

    def test_v2_store_refuses_to_open(self, tmp_path):
        # v3 replaced the per-key accelerator rows with round blocks, v4
        # records the run's coverage schedule, v5 drops the (time, user)
        # index, and v6 writes each round block once, as the coverage
        # frontier passes it (a v5 store stopped mid-run holds partial
        # blocks); an older store is rebuilt from its seeds, never read as v6.
        for version in (2, 3, 4, 5):
            path = tmp_path / f"v{version}.sqlite"
            with TraceStore(path) as store:
                with store.connection:
                    store.connection.execute(
                        "UPDATE meta SET value=? WHERE key='schema_version'", (str(version),)
                    )
            with pytest.raises(
                StoreError, match=f"schema v{version}, this build expects v6"
            ):
                TraceStore(path)

    def test_releases_has_no_second_index(self, tmp_path):
        # One B-tree insert per release: the (user, time) key is the only
        # structure a row is written into.
        with TraceStore(tmp_path / "s.sqlite") as store:
            indexes = store.connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index' AND tbl_name = 'releases'"
            ).fetchall()
        assert indexes == []

    def test_unopenable_path_raises_store_error(self, tmp_path):
        with pytest.raises(StoreError, match="cannot open"):
            TraceStore(tmp_path / "no" / "such" / "dir" / "s.sqlite")


class TestRunManifest:
    def test_first_begin_records_and_returns_empty(self, world, db, engine):
        plan = ShardPlan.build(sorted(db.users()), 4, rng=11)
        manifest = RunManifest.for_run(engine, plan, world)
        with TraceStore(":memory:") as store:
            assert store.begin_run(manifest, expected_coverage(plan, db)) == frozenset()
            assert store.manifest() == manifest

    def test_begin_run_records_the_coverage_schedule(self, world, db, engine):
        plan = ShardPlan.build(sorted(db.users()), 4, rng=11)
        schedule = expected_coverage(plan, db)
        with TraceStore(":memory:") as store:
            assert store.coverage() is None  # no run begun: owes nothing
            store.begin_run(RunManifest.for_run(engine, plan, world), schedule)
            assert store.coverage() == schedule

    def test_meta_roundtrip(self, world, db, engine):
        plan = ShardPlan.build(sorted(db.users()), 4, rng=11)
        manifest = RunManifest.for_run(engine, plan, world)
        assert ResumeManifest.from_meta(manifest.as_meta()) == manifest

    def test_mismatch_names_differing_fields(self, world, db, engine):
        plan = ShardPlan.build(sorted(db.users()), 4, rng=11)
        other_plan = ShardPlan.build(sorted(db.users()), 4, rng=999)
        manifest = RunManifest.for_run(engine, plan, world)
        with TraceStore(":memory:") as store:
            store.begin_run(manifest, expected_coverage(plan, db))
            with pytest.raises(ResumeMismatchError, match="plan_fingerprint"):
                store.begin_run(
                    RunManifest.for_run(engine, other_plan, world),
                    expected_coverage(other_plan, db),
                    resume=True,
                )

    def test_resume_with_a_different_schedule_names_the_shard(
        self, world, db, engine, tmp_path
    ):
        # Same users, seeds and spec, so the manifest matches; but the last
        # user gains a round no shard-3 user had, so resuming would commit
        # a schedule the store's readers were never told about.
        path = str(tmp_path / "s.sqlite")
        _run(world, db, engine, path)
        users, times, cells = db.to_arrays()
        grown = TraceDB()
        grown.record_many(users, times, cells)
        grown.record(max(db.users()), max(db.times()) + 1, 0)
        with pytest.raises(ResumeMismatchError, match="shard 3 commits rounds"):
            _run(world, grown, engine, path, resume=True)

    def test_commits_without_resume_refused(self, world, db, engine, tmp_path):
        path = str(tmp_path / "s.sqlite")
        _run(world, db, engine, path)
        with pytest.raises(StoreError, match="resume=True"):
            _run(world, db, engine, path)

    def test_spec_hash_ignores_execution_block(self, world):
        plain = PrivacyEngine.from_spec(
            world, EngineSpec.named("planar_laplace", "G1", epsilon=1.0)
        )
        sharded = PrivacyEngine.from_spec(
            world,
            EngineSpec.named("planar_laplace", "G1", epsilon=1.0, backend="pool", shards=4),
        )
        other = PrivacyEngine.from_spec(
            world, EngineSpec.named("planar_laplace", "G1", epsilon=2.0)
        )
        assert engine_spec_hash(plain) == engine_spec_hash(sharded)
        assert engine_spec_hash(plain) != engine_spec_hash(other)

    def test_plan_fingerprint_sensitivity(self, db):
        users = sorted(db.users())
        base = ShardPlan.build(users, 4, rng=11)
        assert base.fingerprint == ShardPlan.build(users, 4, rng=11).fingerprint
        assert base.fingerprint != ShardPlan.build(users, 2, rng=11).fingerprint
        assert base.fingerprint != ShardPlan.build(users, 4, rng=12).fingerprint
        assert base.fingerprint != ShardPlan.build(users[:-1], 4, rng=11).fingerprint


class TestShardCommits:
    def test_commit_marks_travel_with_rows(self, world, db, engine):
        plan = ShardPlan.build(sorted(db.users()), 3, rng=11)
        with TraceStore(":memory:") as store:
            server = Server(world, store=store)
            for users, times, batch in stream_shard_releases(engine, db, plan):
                server.ingest_shard(users, times, batch, shard=plan.shard_of(int(users[0])))
            committed = store.committed()
            # every (shard, round) the plan implies is marked, none extra
            expected = {
                (shard, checkin.time)
                for shard, shard_users, _ in plan.iter_shards()
                for user in shard_users
                for checkin in db.user_history(user)
            }
            assert committed == expected
            assert len(store) == len(db)

    def test_store_backed_ingest_requires_shard_index(self, world, engine):
        with TraceStore(":memory:") as store:
            server = Server(world, store=store)
            batch = engine.release_batch([3], rng=0)
            with pytest.raises(DataError, match="shard"):
                server.ingest_shard([1], [0], batch)

    def test_torn_write_recovers_whole_shards(self, world, db, engine, tmp_path):
        # Commit shard 0; then start (but never commit) shard 1's
        # transaction, copy the db + WAL mid-flight, roll back, and reopen
        # the copy: WAL recovery must leave exactly shard 0 behind.
        path = tmp_path / "torn.sqlite"
        plan = ShardPlan.build(sorted(db.users()), 4, rng=11)
        shards = list(stream_shard_releases(engine, db, plan))
        with TraceStore(path) as store:
            server = Server(world, store=store)
            users0, times0, batch0 = shards[0]
            server.ingest_shard(users0, times0, batch0, shard=0)
            before = store.committed()
            users1, times1, batch1 = shards[1]
            conn = store.connection
            conn.execute("BEGIN IMMEDIATE")
            conn.executemany(
                "INSERT OR REPLACE INTO releases (user, time, cell, x, y, exact, epsilon) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                zip(
                    np.asarray(users1).tolist(),
                    np.asarray(times1).tolist(),
                    np.asarray(batch1.cells).tolist(),
                    batch1.points[:, 0].tolist(),
                    batch1.points[:, 1].tolist(),
                    batch1.exact.astype(int).tolist(),
                    batch1.epsilons.tolist(),
                ),
            )
            conn.execute(
                "INSERT OR REPLACE INTO shard_commits (shard, round, n_rows) VALUES (1, 0, 1)"
            )
            torn = tmp_path / "copy.sqlite"
            for suffix in ("", "-wal", "-shm"):
                source = tmp_path / f"torn.sqlite{suffix}"
                if source.exists():
                    shutil.copy(source, tmp_path / f"copy.sqlite{suffix}")
            conn.rollback()
        with TraceStore(torn) as recovered:
            assert recovered.committed() == before  # only shard 0 survived
            shard0_users = set(np.asarray(users0).tolist())
            assert recovered.users() == shard0_users

    def test_commit_shard_on_closed_store_raises_store_error(self, world, engine):
        store = TraceStore(":memory:")
        store.close()
        batch = engine.release_batch([3], rng=0)
        with pytest.raises(StoreError, match="closed"):
            store.commit_shard(0, _prepared(np.array([1]), np.array([0]), batch))


class TestReadApi:
    @pytest.fixture()
    def populated(self, world, db, engine, tmp_path):
        path = str(tmp_path / "run.sqlite")
        reference = run_release_rounds_batched(
            world, db, engine, rng=11, shards=4, backend="serial"
        )
        _run(world, db, engine, path)
        store = TraceStore(path)
        yield store, reference.released_db
        store.close()

    def test_checkins_match_tracedb_order_and_values(self, populated):
        store, released = populated
        assert list(store.checkins()) == list(released.checkins())

    def test_point_queries_match(self, populated, world, engine, tmp_path):
        # The geolife store holds every user at every round; the gowalla one
        # has users whose [min_time, max_time] span covers rounds they hold
        # no row at, which at_time's user_summary join must skip.
        sparse = gowalla_like(world, n_users=12, checkins_per_user=4, horizon=20, rng=5)
        sparse_path = str(tmp_path / "sparse.sqlite")
        sparse_released = run_release_rounds_batched(
            world, sparse, engine, rng=11, shards=4, backend="serial"
        ).released_db
        _run(world, sparse, engine, sparse_path)
        assert any(
            len(sparse.user_history(user))
            < sparse.user_history(user)[-1].time - sparse.user_history(user)[0].time + 1
            for user in sparse.users()
        )
        with TraceStore(sparse_path) as sparse_store:
            for store, released in (populated, (sparse_store, sparse_released)):
                assert store.users() == released.users()
                assert store.times() == released.times()
                for time in range(min(released.times()) - 1, max(released.times()) + 2):
                    assert list(store.at_time(time).items()) == list(
                        released.at_time(time).items()
                    )
                    assert list(StoredTraceDB(store).at_time(time).items()) == list(
                        released.at_time(time).items()
                    )
                for user in sorted(released.users()):
                    assert store.user_history(user) == released.user_history(user)
                    assert store.location(user, released.times()[0]) == released.location(
                        user, released.times()[0]
                    )
                assert store.location(max(released.users()) + 1, 0) is None

    @pytest.mark.parametrize(
        "read, name",
        [
            pytest.param(lambda store: store.at_time(1.9), "time", id="at_time-float"),
            pytest.param(lambda store: store.at_time(True), "time", id="at_time-bool"),
            pytest.param(lambda store: store.location(True, 1), "user", id="location-bool"),
            pytest.param(lambda store: store.location(1, 0.5), "time", id="location-float"),
            pytest.param(lambda store: store.user_history(0.5), "user", id="user_history-float"),
            pytest.param(
                lambda store: StoredTraceDB(store).at_time(1.2), "time", id="view-at_time-float"
            ),
            pytest.param(
                lambda store: StoredTraceDB(store).location(np.float64(1.0), 1),
                "user",
                id="view-location-numpy-float",
            ),
            pytest.param(
                lambda store: store.shard_release_rows(0.2, 1), "low_user", id="rows-low-float"
            ),
            pytest.param(
                lambda store: store.shard_release_rows(0, 1.9), "high_user", id="rows-high-float"
            ),
        ],
    )
    def test_point_reads_refuse_non_integer_arguments(self, populated, read, name):
        # Truncated, at_time(1.9) would answer round 1 and location(True, 1)
        # user 1.
        store, _ = populated
        with pytest.raises(ValidationError, match=f"^{name} must be an int"):
            read(store)

    def test_load_tracedb_equivalent(self, populated):
        store, released = populated
        assert list(store.load_tracedb().checkins()) == list(released.checkins())

    def test_stored_tracedb_view(self, populated):
        store, released = populated
        view = StoredTraceDB(store)
        assert len(view) == len(released)
        assert view.users() == released.users()
        assert list(view.checkins()) == list(released.checkins())
        users, times, cells = view.to_arrays()
        ref_users, ref_times, ref_cells = released.to_arrays()
        assert np.array_equal(users, ref_users)
        assert np.array_equal(times, ref_times)
        assert np.array_equal(cells, ref_cells)
        for user in sorted(released.users())[:3]:
            assert view.user_history(user) == released.user_history(user)
            assert view.cells_visited(user) == released.cells_visited(user)

    def test_stored_tracedb_is_read_only(self, populated):
        store, _ = populated
        view = StoredTraceDB(store)
        with pytest.raises(StoreError, match="read-only"):
            view.record(1, 2, 3)
        with pytest.raises(StoreError, match="read-only"):
            view.record_many([1], [2], [3])


class TestBatchedInsert:
    """Release rows go in as multi-row INSERTs of 64 rows; none is altered."""

    @pytest.mark.parametrize("n_rows", [1, 63, 64, 65, 129])
    def test_every_column_reads_back_exactly(self, n_rows):
        rng = np.random.default_rng(n_rows)
        keys = rng.permutation(n_rows)  # commit order is not key order
        users, times = keys // 4, keys % 4
        points = rng.normal(scale=50.0, size=(n_rows, 2))
        points[::7] = np.round(points[::7])  # integral REALs round-trip too
        batch = ReleaseBatch(
            points=points,
            exact=rng.random(n_rows) < 0.3,
            epsilons=rng.random(n_rows) * 3,
            cells=rng.integers(0, 36, n_rows),
        )
        with TraceStore(":memory:") as store:
            assert store.commit_shard(2, _prepared(users, times, batch))
            rows = store.connection.execute(
                "SELECT user, time, cell, x, y, exact, epsilon FROM releases "
                "ORDER BY user, time"
            ).fetchall()
            assert store.committed() == {(2, time) for time in range(min(n_rows, 4))}
        columns = (users, times, batch.cells, *points.T, batch.exact.astype(int), batch.epsilons)
        by_key = np.argsort(keys)
        assert rows == list(zip(*(column[by_key].tolist() for column in columns)))
        assert all(type(value) is float for row in rows for value in (row[3], row[4], row[6]))


class TestOutOfCoreServer:
    def test_out_of_core_requires_store(self, world):
        with pytest.raises(ValidationError, match="requires a TraceStore"):
            Server(world, out_of_core=True)

    def test_run_matches_in_memory(self, world, db, engine, tmp_path):
        reference = run_release_rounds_batched(
            world, db, engine, rng=11, shards=4, backend="serial"
        )
        server = _run(world, db, engine, str(tmp_path / "ooc.sqlite"), out_of_core=True)
        try:
            assert isinstance(server.released_db, StoredTraceDB)
            assert list(server.released_db.checkins()) == list(
                reference.released_db.checkins()
            )
            for user in db.users():
                assert server.ledger.spent(user) == reference.ledger.spent(user)
        finally:
            server.store.close()

    def test_unsharded_store_round_trip(self, world, db, engine, tmp_path):
        # No shards= or backend=: a one-shard run stores, then resumes by
        # replaying its one committed shard.
        path = str(tmp_path / "s.sqlite")
        reference = run_release_rounds_batched(world, db, engine, rng=11, shards=1)
        stored = run_release_rounds_batched(world, db, engine, rng=11, store=path)
        resumed = run_release_rounds_batched(world, db, engine, rng=11, store=path, resume=True)
        with TraceStore(path) as store:
            assert len(store) == len(db)
            assert {shard for shard, _ in store.committed()} == {0}
        for server in (stored, resumed):
            assert list(server.released_db.checkins()) == list(
                reference.released_db.checkins()
            )
            for user in db.users():
                assert server.ledger.spent(user) == reference.ledger.spent(user)

    @pytest.mark.parametrize("flag", ["resume", "out_of_core"])
    def test_sharded_request_without_store_rejected(self, world, db, engine, flag):
        # Without a store there is nothing to resume or page out to; a
        # silent fresh in-memory run would hide the misconfiguration.
        for shards in (2, None):
            with pytest.raises(ValidationError, match=f"{flag}=True requires a store"):
                run_release_rounds_batched(
                    world, db, engine, rng=11, shards=shards, **{flag: True}
                )


class TestChargeMany:
    def test_matches_scalar_loop_bitwise(self):
        rng = np.random.default_rng(0)
        users = rng.integers(0, 5, size=200)
        times = rng.integers(0, 20, size=200)
        epsilons = rng.random(200)
        scalar = BudgetLedger()
        for user, time, epsilon in zip(users, times, epsilons):
            scalar.charge(int(user), int(time), float(epsilon), purpose="stream")
        bulk = BudgetLedger()
        assert bulk.charge_many(users, times, epsilons, purpose="stream") == 200
        for user in range(5):
            assert bulk.spent(user) == scalar.spent(user)
        assert bulk.entries == scalar.entries

    def test_record_entries_off_keeps_totals(self):
        ledger = BudgetLedger(record_entries=False)
        ledger.charge_many([1, 1, 2], [0, 1, 0], [0.5, 0.25, 1.0])
        assert ledger.entries == ()
        assert len(ledger) == 0
        assert ledger.spent(1) == 0.75
        assert ledger.spent(2) == 1.0
        assert ledger.total_spent() == 1.75

    def test_cap_enforced_mid_batch(self):
        ledger = BudgetLedger(cap=1.0)
        with pytest.raises(BudgetError):
            ledger.charge_many([1, 1, 1], [0, 1, 2], [0.6, 0.6, 0.6])
        assert ledger.spent(1) == 0.6  # rows before the violation stay charged

    def test_negative_epsilon_rejected(self):
        with pytest.raises(Exception):
            BudgetLedger().charge_many([1], [0], [-0.5])


class TestExecutionSpecWiring:
    def test_round_trip_with_store(self):
        spec = EngineSpec.named(
            "planar_laplace", "G1", epsilon=1.0, backend="pool", shards=4,
            store="run.sqlite", resume=True,
        )
        payload = spec.to_dict()
        assert payload["execution"]["store"] == "run.sqlite"
        assert payload["execution"]["resume"] is True
        rebuilt = EngineSpec.from_dict(payload)
        assert rebuilt.execution.store == "run.sqlite"
        assert rebuilt.execution.resume is True

    def test_store_keys_absent_when_unset(self):
        spec = EngineSpec.named("planar_laplace", "G1", epsilon=1.0, backend="pool")
        assert "store" not in spec.to_dict()["execution"]
        assert "resume" not in spec.to_dict()["execution"]

    def test_resume_without_store_rejected(self):
        with pytest.raises(ValidationError, match="requires a store"):
            ExecutionSpec(backend="serial", shards=1, resume=True)
        with pytest.raises(ValidationError, match="requires a store"):
            EngineSpec.named("planar_laplace", "G1", resume=True)

    def test_spec_store_drives_pipeline(self, world, db, engine, tmp_path):
        path = str(tmp_path / "spec.sqlite")
        spec = EngineSpec.named(
            "planar_laplace", "G1", epsilon=1.0, backend="serial", shards=4, store=path
        )
        spec_engine = PrivacyEngine.from_spec(world, spec)
        run_release_rounds_batched(world, db, spec_engine, rng=11)
        with TraceStore(path) as store:
            assert len(store) == len(db)
            assert store.committed()


class TestFileSizeReporting:
    def test_size_counts_wal_and_shm_sidecars(self, world, db, engine, tmp_path):
        # Regression: the size used to read the main file alone, which on a
        # live WAL store (uncheckpointed commits sit in -wal) understated
        # real disk usage.  Written shards must grow the *reported* size
        # even before any checkpoint folds them into the main file.
        path = tmp_path / "sized.sqlite"
        with TraceStore(path) as store:
            empty = store.file_size_bytes()
            server = Server(world, store=store)
            plan = ShardPlan.build(sorted(db.users()), 4, rng=11)
            sizes = [empty]
            for users, times, batch in stream_shard_releases(engine, db, plan):
                server.ingest_shard(
                    users, times, batch, shard=plan.shard_of(int(users[0]))
                )
                sizes.append(store.file_size_bytes())
            assert sizes == sorted(sizes) and sizes[-1] > empty
            wal = path.with_name(path.name + "-wal")
            assert wal.exists() and wal.stat().st_size > 0
            assert store.file_size_bytes() >= path.stat().st_size + wal.stat().st_size

    def test_memory_store_reports_zero(self):
        with TraceStore(":memory:") as store:
            assert store.file_size_bytes() == 0


class TestAcceleratorServedReads:
    """users()/times() answer from summaries, never a releases scan."""

    @pytest.fixture()
    def populated(self, world, db, engine, tmp_path):
        with TraceStore(tmp_path / "reads.sqlite") as store:
            _run(world, db, engine, store)
            yield store

    def test_users_and_times_match_full_scans(self, populated):
        from repro.query.reference import full_scan_times, full_scan_users

        assert populated.users() == full_scan_users(populated)
        assert populated.times() == full_scan_times(populated)

    @pytest.mark.parametrize("method", ["users", "times"])
    def test_query_plan_never_touches_releases(self, populated, method):
        # EXPLAIN QUERY PLAN on the exact SQL the read runs: the plan must
        # be served from the summary/marks tables — any mention of the
        # releases table means the O(rows) DISTINCT scan crept back in.
        sql = {
            "users": "SELECT user FROM user_summary",
            "times": "SELECT DISTINCT round FROM shard_commits ORDER BY round",
        }[method]
        getattr(populated, method)()  # the SQL below is what this executes
        plan = populated.connection.execute(f"EXPLAIN QUERY PLAN {sql}").fetchall()
        assert plan, "EXPLAIN QUERY PLAN returned nothing"
        detail = " | ".join(str(row) for row in plan)
        assert "releases" not in detail.lower()


class TestAcceleratorMaintenance:
    def test_replayed_commit_is_a_noop(self, world, db, engine):
        # Summaries merge by addition, so the idempotency guard must swallow
        # an exact duplicate commit without double-counting.
        plan = ShardPlan.build(sorted(db.users()), 2, rng=11)
        with TraceStore(":memory:") as store:
            server = Server(world, store=store)
            parts = list(stream_shard_releases(engine, db, plan))
            for users, times, batch in parts:
                server.ingest_shard(users, times, batch, shard=plan.shard_of(int(users[0])))
            blocks = store.connection.execute(BLOCKS_SQL).fetchall()
            assert blocks
            users, times, batch = parts[0]
            store.commit_shard(
                plan.shard_of(int(users[0])),
                _prepared(users, times, batch, true_cells=batch.cells),
            )
            assert store.connection.execute(BLOCKS_SQL).fetchall() == blocks

    def test_reingested_durable_shard_is_refused_before_charging(self, world, db, engine):
        # commit_shard swallows the duplicate, so the server must refuse it
        # too: re-applying the shard would double its trace rows and ledger
        # charges while the store still holds them once.
        plan = ShardPlan.build(sorted(db.users()), 2, rng=11)
        users, times, batch = next(
            iter(stream_shard_releases(engine, db, plan, only_shards=frozenset({0})))
        )
        with TraceStore(":memory:") as store:
            server = Server(world, store=store)
            server.ingest_shard(users, times, batch, shard=0)
            ledger = server.ledger

            def state():
                spent = {user: ledger.spent(user) for user in ledger.users()}
                return len(store), len(ledger), len(server.released_db), spent

            before = state()
            with pytest.raises(DataError, match="shard 0 is already durable"):
                server.ingest_shard(users, times, batch, shard=0)
            assert state() == before
            assert before[0] == before[1] == len(users)

    def test_partial_round_overlap_rejected(self, world, engine):
        with TraceStore(":memory:") as store:
            batch = engine.release_batch(np.array([0, 1]), rng=np.random.default_rng(0))
            store.commit_shard(0, _prepared(np.array([1, 1]), np.array([0, 1]), batch))
            grown = engine.release_batch(
                np.array([0, 1, 2]), rng=np.random.default_rng(0)
            )
            with pytest.raises(StoreError, match="must commit together exactly once"):
                store.commit_shard(
                    0, _prepared(np.array([1, 1, 1]), np.array([1, 2, 3]), grown)
                )

    def test_true_and_plain_commit_styles_cannot_mix(self, world, engine):
        with TraceStore(":memory:") as store:
            batch = engine.release_batch(np.array([0]), rng=np.random.default_rng(0))
            store.commit_shard(
                0, _prepared(np.array([1]), np.array([0]), batch, true_cells=batch.cells)
            )
            assert store.maintains_true_summaries() is True
            other = engine.release_batch(np.array([5]), rng=np.random.default_rng(1))
            with pytest.raises(StoreError, match="true"):
                store.commit_shard(1, _prepared(np.array([2]), np.array([0]), other))


def _store_state(store):
    """Rows, marks, round blocks and user summaries, for refusal checks."""
    connection = store.connection
    return (
        connection.execute("SELECT * FROM releases ORDER BY user, time").fetchall(),
        store.committed(),
        connection.execute(BLOCKS_SQL).fetchall(),
        connection.execute("SELECT * FROM user_summary ORDER BY user").fetchall(),
    )


class TestCommitRefusals:
    """Commits the store refuses whole, before anything is written."""

    def test_key_stored_by_an_earlier_commit_is_refused(self, world, engine):
        # Shard 0 stores user 1 at rounds 0-1; shard 1 then offers user 1 at
        # round 1 again.  Overwriting that row while the summaries counted it
        # twice would make contact_rate and flow_matrix disagree with the
        # full scans, so the whole commit is refused instead.
        with TraceStore(":memory:") as store:
            batch = engine.release_batch(np.array([0, 1]), rng=np.random.default_rng(0))
            store.commit_shard(0, _prepared(np.array([1, 1]), np.array([0, 1]), batch))
            before = _store_state(store)
            again = engine.release_batch(np.array([2, 3]), rng=np.random.default_rng(1))
            with pytest.raises(
                StoreError, match=r"shard 1 repeats \(user, time\) \(1, 1\), which an earlier"
            ):
                store.commit_shard(1, _prepared(np.array([2, 1]), np.array([1, 1]), again))
            assert _store_state(store) == before
            engine_q = QueryEngine(store, world=world)
            window = Window(0, 1)
            assert engine_q.contact_rate(window) == ref.full_scan_contact_rate(store, window)
            assert engine_q.flow_matrix(window) == ref.full_scan_flow_matrix(
                store, window, world
            )

    def test_key_repeated_within_a_commit_is_refused(self, engine):
        with TraceStore(":memory:") as store:
            batch = engine.release_batch(np.array([0]), rng=np.random.default_rng(0))
            store.commit_shard(0, _prepared(np.array([7]), np.array([0]), batch))
            before = _store_state(store)
            repeated = engine.release_batch(
                np.array([0, 1, 2, 3]), rng=np.random.default_rng(1)
            )
            # Both (2, 5) and (3, 5) repeat; the first key in order is named,
            # when the shard is prepared, before the store sees it.
            with pytest.raises(DataError, match=r"duplicate \(user, time\) key \(2, 5\);"):
                store.commit_shard(
                    1, _prepared(np.array([3, 2, 2, 3]), np.array([5, 5, 5, 5]), repeated)
                )
            assert _store_state(store) == before

    def test_count_outside_int32_is_refused(self, engine):
        with TraceStore(":memory:") as store:
            batch = engine.release_batch(np.array([4]), rng=np.random.default_rng(0))
            store.commit_shard(0, _prepared(np.array([1]), np.array([0]), batch))
            # A round-0 occupancy already at the int32 ceiling: one more
            # visit to the same cell cannot be stored in the block.
            full = np.array([[4, np.iinfo(np.int32).max]], dtype="<i4").tobytes()
            with store.connection:
                store.connection.execute(
                    "UPDATE round_blocks SET cells = ? WHERE kind = 0 AND time = 0", (full,)
                )
            before = _store_state(store)
            more = engine.release_batch(np.array([4]), rng=np.random.default_rng(1))
            with pytest.raises(StoreError, match=r"shard 1 .*2147483648 \(kind 0, round 0\)"):
                store.commit_shard(1, _prepared(np.array([2]), np.array([0]), more))
            assert _store_state(store) == before

    def test_cell_id_outside_int32_is_refused(self, engine):
        with TraceStore(":memory:") as store:
            before = _store_state(store)
            batch = engine.release_batch(np.array([4]), rng=np.random.default_rng(0))
            wide = replace(batch, cells=np.array([2**31]))
            with pytest.raises(StoreError, match="shard 3 .*outside the int32 range"):
                store.commit_shard(3, _prepared(np.array([1]), np.array([0]), wide))
            assert _store_state(store) == before

    @pytest.mark.parametrize(
        "column, values",
        [
            pytest.param("users", {"users": [0.5, 1.7]}, id="users-float"),
            pytest.param("users", {"users": [True, False]}, id="users-bool"),
            pytest.param("times", {"times": [0.9, 0.2]}, id="times-float"),
            pytest.param("cells", {"cells": np.array([1.7, 2.2])}, id="cells-float"),
            pytest.param("true_cells", {"true_cells": np.array([1.0, 2.0])}, id="true_cells-float"),
        ],
    )
    def test_non_integer_column_is_refused(self, engine, column, values):
        # Truncated, users [0.5, 1.7] would be stored as users 0 and 1.
        with TraceStore(":memory:") as store:
            before = _store_state(store)
            batch = engine.release_batch(np.array([4, 5]), rng=np.random.default_rng(0))
            if "cells" in values:
                batch = replace(batch, cells=values["cells"])
            with pytest.raises(ValidationError, match=f"^{column} must be integers"):
                users = values.get("users", [0, 1])
                times = values.get("times", [0, 0])
                store.commit_shard(
                    0, _prepared(users, times, batch, true_cells=values.get("true_cells"))
                )
            assert _store_state(store) == before

    def test_columns_of_different_lengths_are_refused(self, engine):
        with TraceStore(":memory:") as store:
            before = _store_state(store)
            batch = engine.release_batch(np.array([4, 5, 6]), rng=np.random.default_rng(0))
            with pytest.raises(
                DataError,
                match=r"misaligned: users \(2,\), times \(3,\), cells \(3,\), points \(3, 2\)",
            ):
                store.commit_shard(4, _prepared([0, 1], [0, 0, 0], batch))
            with pytest.raises(DataError, match=r"epsilons \(3,\), true_cells \(2,\);"):
                store.commit_shard(4, _prepared([0, 1, 2], [0, 0, 0], batch, true_cells=[4, 5]))
            assert _store_state(store) == before

    def test_negative_cell_is_refused(self, engine):
        # (0, 2, -1) beside (0, 1, 3) and (1, 2, 5): the occupancy codes
        # time * (max + 1) + cell would count the -1 as cell 5 of round 1.
        with TraceStore(":memory:") as store:
            before = _store_state(store)
            batch = engine.release_batch(np.array([3, 5, 1]), rng=np.random.default_rng(0))
            negative = replace(batch, cells=np.array([3, 5, -1]))
            with pytest.raises(DataError, match=r"^cells holds -1 at \(user, time\) \(0, 2\);"):
                store.commit_shard(0, _prepared([0, 1, 0], [1, 2, 2], negative))
            with pytest.raises(
                DataError, match=r"^true_cells holds -2 at \(user, time\) \(1, 0\);"
            ):
                store.commit_shard(
                    0, _prepared([0, 1, 0], [1, 0, 2], batch, true_cells=[3, -2, 1])
                )
            assert _store_state(store) == before

    def test_prepared_shard_without_release_columns_is_refused(self, engine):
        # A shard prepared for the live views alone has no exact or epsilon
        # columns; the store keeps both for every release.
        with TraceStore(":memory:") as store:
            before = _store_state(store)
            batch = engine.release_batch(np.array([4, 5]), rng=np.random.default_rng(0))
            views_only = PreparedShard.build([0, 1], [0, 0], batch.cells, batch.points)
            with pytest.raises(StoreError, match="shard 2 carries no exact or epsilons column"):
                store.commit_shard(2, views_only)
            assert _store_state(store) == before

    def test_negative_times_are_stored(self, engine):
        # Negative rounds decode exactly (floor division), so they stay accepted.
        with TraceStore(":memory:") as store:
            batch = engine.release_batch(np.array([3, 3, 4]), rng=np.random.default_rng(0))
            store.commit_shard(0, _prepared([1, 2, 1], [-1, -1, 0], batch))
            assert store.at_time(-1) == {1: 3, 2: 3}
            times, sizes, cells = accelerator.read_round_blocks(
                store.connection, "cells", 0, -1, -1
            )
            assert (times.tolist(), sizes.tolist(), cells.tolist()) == ([-1], [1], [[3, 2]])

    def test_epoch_second_rounds_keep_their_blocks(self):
        # Rounds near 2e9 with cell ids near 1e5: an int64 code of
        # (round * base + src) * base + dst wraps, and the flows block once
        # landed at round 155362487 holding (56380 -> 29517) while the
        # window at 2e9 read nothing.  Each key column is now offset by its
        # minimum before it is encoded, so the block keeps round and cells.
        t = 2_000_000_000
        batch = ReleaseBatch(
            points=np.zeros((2, 2)),
            exact=np.zeros(2, dtype=bool),
            epsilons=np.ones(2),
            cells=np.array([100_000, 99_999]),
        )
        with TraceStore(":memory:") as store:
            store.commit_shard(0, _prepared([1, 1], [t, t + 1], batch))
            assert _block_rounds(store) == [t, t + 1]
            times, sizes, flows = accelerator.read_round_blocks(
                store.connection, "flows", 0, t - 5, t + 5
            )
            assert (times.tolist(), sizes.tolist()) == ([t + 1], [1])
            assert flows.tolist() == [[100_000, 99_999, 1]]
            times, _, cells = accelerator.read_round_blocks(
                store.connection, "cells", 0, t - 5, t + 5
            )
            assert times.tolist() == [t, t + 1]
            assert cells.tolist() == [[100_000, 1], [99_999, 1]]


# ----------------------------------------------------------------------
# write-once round blocks
# ----------------------------------------------------------------------


def _staggered_db(world):
    """12 users in 4 shards: shards 0-1 hold rounds 0-3, shards 2-3 rounds 2-7."""
    db = TraceDB()
    for user in range(12):
        start, end = (0, 3) if user < 6 else (2, 7)
        for time in range(start, end + 1):
            db.record(user, time, (user * 7 + time * 3) % world.n_cells)
    return db


def _block_rounds(store):
    rows = store.connection.execute("SELECT DISTINCT time FROM round_blocks ORDER BY time")
    return [time for (time,) in rows]


@pytest.fixture(scope="module")
def run_parts(world, db, engine):
    """The 4-shard run of ``db`` as ``(manifest, schedule, shard -> parts)``."""
    plan = ShardPlan.build(sorted(db.users()), 4, rng=11)
    parts = {
        plan.shard_of(int(users[0])): (users, times, batch)
        for users, times, batch in stream_shard_releases(engine, db, plan)
    }
    return RunManifest.for_run(engine, plan, world), expected_coverage(plan, db), parts


def _replay(server, parts, db, shard):
    users = parts[shard][0]
    return server.replay_shard(
        int(users.min()), int(users.max()), shard=shard, true_cells=partial(_true_cells, db)
    )


class TestWriteOnce:
    """A round block is written once, by the commit that passes the frontier over it."""

    @pytest.mark.parametrize("backend", backend_names())
    def test_blocks_hold_exactly_the_rounds_the_frontier_passed(
        self, backend, world, engine, monkeypatch
    ):
        staggered = _staggered_db(world)
        seen = []
        commit = TraceStore.commit_shard

        def observed(store, *args, **kwargs):
            written = commit(store, *args, **kwargs)
            frontier = Coverage(store.coverage())
            frontier.commit(store.committed())
            seen.append((_block_rounds(store), list(frontier.frozen_rounds)))
            return written

        monkeypatch.setattr(TraceStore, "commit_shard", observed)
        with TraceStore(":memory:") as store:
            run_release_rounds_batched(
                world, staggered, engine, rng=11, shards=4, backend=backend, store=store
            )
            kinds = store.connection.execute(
                "SELECT kind, COUNT(*) FROM round_blocks GROUP BY kind ORDER BY kind"
            ).fetchall()
            assert store.parked_pieces() == {}
        assert [blocks for blocks, _ in seen] == [frozen for _, frozen in seen]
        assert [frozen for _, frozen in seen][-1] == list(range(8))
        assert kinds == [(0, 8), (1, 8)]
        if backend == "serial":
            # Shards commit in order: rounds 0-1 complete with shard 1.
            assert [frozen for _, frozen in seen] == [[], [0, 1], [0, 1], list(range(8))]

    def test_reopened_store_refuses_until_its_shards_are_re_parked(
        self, world, db, engine, run_parts, tmp_path
    ):
        manifest, schedule, parts = run_parts
        path = tmp_path / "reopened.sqlite"
        with TraceStore(path) as store:
            store.begin_run(manifest, schedule)
            server = Server(world, store=store)
            for shard in (0, 1):
                server.ingest_shard(*parts[shard], shard=shard)
            assert store.parked_pieces() and _block_rounds(store) == []
        with TraceStore(path) as store:
            store.begin_run(manifest, schedule, resume=True)
            assert store.parked_pieces() == {}
            server = Server(world, store=store)
            before = _store_state(store)
            with pytest.raises(
                StoreError,
                match=r"holds commits of shard\(s\) \[0, 1\] at rounds \[0, 1, 2, .* not parked",
            ):
                server.ingest_shard(*parts[2], shard=2)
            assert _store_state(store) == before
            for shard in (0, 1):
                _replay(server, parts, db, shard)
            assert _store_state(store) == before  # a re-park writes nothing
            for shard in (2, 3):
                server.ingest_shard(*parts[shard], shard=shard)
            resumed = _store_state(store)
        with TraceStore(":memory:") as whole:
            _run(world, db, engine, whole)
            assert resumed == _store_state(whole)

    def test_a_second_writer_is_refused(self, world, db, engine, run_parts, tmp_path):
        manifest, schedule, parts = run_parts
        path = tmp_path / "shared.sqlite"
        with TraceStore(path) as first, TraceStore(path) as second:
            first.begin_run(manifest, schedule)
            Server(world, store=first).ingest_shard(*parts[0], shard=0)
            second.begin_run(manifest, schedule, resume=True)
            other = Server(world, store=second)
            _replay(other, parts, db, 0)
            other.ingest_shard(*parts[1], shard=1)
            before = _store_state(first)
            with pytest.raises(StoreError, match=r"holds commits of shard\(s\) \[1\]"):
                Server(world, store=first).ingest_shard(*parts[2], shard=2)
            assert _store_state(first) == before

    def test_many_shards_fold_their_parked_pieces(self, world, engine, monkeypatch):
        many = geolife_like(world, n_users=64, horizon=6, rng=5)
        peaks = []
        commit = TraceStore.commit_shard

        def observed(store, *args, **kwargs):
            written = commit(store, *args, **kwargs)
            peaks.append(max(store.parked_pieces().values(), default=0))
            return written

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(TraceStore, "commit_shard", observed)
            with TraceStore(":memory:") as split:
                run_release_rounds_batched(world, many, engine, rng=11, shards=64, store=split)
                got = _store_state(split)[2:]
        with TraceStore(":memory:") as whole:
            run_release_rounds_batched(world, many, engine, rng=11, shards=1, store=whole)
            want = _store_state(whole)[2:]
        assert len(peaks) == 64
        assert max(peaks) == accelerator.MAX_PARKED_PIECES  # reached, never passed
        assert peaks[-1] == 0
        assert got == want

    def test_re_commit_with_other_rows_is_refused(
        self, world, db, engine, run_parts, tmp_path
    ):
        manifest, schedule, parts = run_parts
        path = tmp_path / "other-rows.sqlite"
        with TraceStore(path) as store:
            store.begin_run(manifest, schedule)
            Server(world, store=store).ingest_shard(*parts[0], shard=0)
        with TraceStore(path) as store:
            users, times, batch = parts[0]
            keep = users != users[0]
            fewer = replace(
                batch,
                points=batch.points[keep],
                exact=batch.exact[keep],
                epsilons=batch.epsilons[keep],
                cells=np.asarray(batch.cells)[keep],
            )
            with pytest.raises(StoreError, match="other row counts than its durable marks"):
                store.commit_shard(
                    0, _prepared(users[keep], times[keep], fewer, true_cells=fewer.cells)
                )
            assert store.parked_pieces() == {}
