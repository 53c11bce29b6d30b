"""The windowed query surface: accelerator answers equal full scans, bitwise.

The headline contract of ``repro.query`` mirrors the live-metrics one: every
windowed answer served from the accelerator summary tables equals its naive
``full_scan_*`` reference **bitwise**, under every execution shape.  This
file pins that matrix (shards {1, 2, 5, 7} x every registered backend x
kill-resume), the coverage-frontier
refusal rule (half-covered windows name the shards they wait on), awkward
stores (empty windows, coverage gaps, ``:memory:``, resumed mid-run), and a
Hypothesis property: under *any* interleaving of shard commits and window
queries, each query either refuses or returns the exact full-scan answer
for the committed prefix.
"""

import itertools
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.mechanisms.base import ReleaseBatch
from repro.engine import PrivacyEngine, backend_names, ensure_backend
from repro.engine.sharding import ShardPlan, stream_shard_releases
from repro.errors import (
    DataError,
    SnapshotUnavailableError,
    StoreError,
    ValidationError,
)
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like, gowalla_like
from repro.mobility.trajectory import TraceDB
from repro.query import QueryEngine, Window, sliding_windows, tumbling_windows
from repro.query import reference as ref
from repro.server.live_metrics import default_views, expected_coverage
from repro.server.pipeline import Server, run_release_rounds_batched
from repro.store import Coverage, PreparedShard, RunManifest, TraceStore

N_USERS = 16
HORIZON = 8
RNG = 11

SHARD_COUNTS = [1, 2, 5, 7]

#: The windows every fingerprint probes: a tumbling tiling plus overlapping
#: sliders, so boundaries, overlaps, and the clipped tail all get exercised.
WINDOWS = tumbling_windows(0, HORIZON - 1, 3) + sliding_windows(0, HORIZON - 1, 4, step=2)
FULL = Window(0, HORIZON - 1)


def _prepared(users, times, batch, true_cells=None):
    """``batch``'s rows prepared for a direct commit; its ``cells`` are what is stored."""
    return PreparedShard.build(
        users, times, batch.cells, batch.points, batch.exact, batch.epsilons, true_cells=true_cells
    )


@pytest.fixture(scope="module")
def world():
    return GridWorld(6, 6)


@pytest.fixture(scope="module")
def db(world):
    return geolife_like(world, n_users=N_USERS, horizon=HORIZON, rng=3)


@pytest.fixture(scope="module")
def engine(world):
    return PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)


# One live backend per name, shared across the matrix (worker spawn paid
# once per module — the same amortisation the live-metrics matrix uses).
@pytest.fixture(scope="module", params=backend_names())
def backend(request):
    with ensure_backend(request.param) as instance:
        yield instance


@pytest.fixture(scope="module")
def resolver(db):
    """``(users, times) -> true cells`` from the ground-truth TraceDB."""
    lookup = {
        (checkin.user, checkin.time): checkin.cell
        for user in db.users()
        for checkin in db.user_history(user)
    }

    def resolve(users, times):
        return np.array(
            [lookup[(int(u), int(t))] for u, t in zip(users, times)], dtype=np.int64
        )

    return resolve


#: Every accelerator round block, in key order: the stored bytes themselves.
BLOCKS_SQL = "SELECT kind, time, cells, flows FROM round_blocks ORDER BY kind, time"


def _fingerprint(store, world):
    """Every query answer over the probe windows, as one comparable value.

    It includes the accelerator's round-block bytes, which must not depend
    on how the run was split: shard count, backend, kill-resume.
    """
    engine = QueryEngine(store, world=world)
    fingerprint = {("blocks",): store.connection.execute(BLOCKS_SQL).fetchall()}
    for window in WINDOWS:
        for kind in ("observed", "true"):
            key = (window.start, window.end, kind)
            fingerprint[("contact",) + key] = engine.contact_rate(window, kind=kind)
            fingerprint[("flows",) + key] = engine.flow_matrix(window, kind=kind)
        fingerprint[("top", window.start, window.end)] = tuple(
            engine.top_cells(window, 5)
        )
    for user in sorted(store.users()):
        fingerprint[("epsilon", user)] = engine.epsilon_spent(user, FULL)
        fingerprint[("trajectory", user)] = tuple(engine.trajectory(user))
    return fingerprint


def _assert_matches_full_scan(store, world, resolver):
    """Bit-check every accelerator answer against its full-scan twin."""
    engine = QueryEngine(store, world=world)
    for window in WINDOWS:
        assert engine.contact_rate(window) == ref.full_scan_contact_rate(store, window)
        assert engine.contact_rate(window, kind="true") == ref.full_scan_contact_rate(
            store, window, kind="true", true_resolver=resolver
        )
        assert engine.flow_matrix(window) == ref.full_scan_flow_matrix(
            store, window, world
        )
        assert engine.flow_matrix(window, kind="true") == ref.full_scan_flow_matrix(
            store, window, world, kind="true", true_resolver=resolver
        )
        # A non-default tiling is served from the same cell-level counts.
        assert engine.flow_matrix(window, block_rows=2, block_cols=3) == (
            ref.full_scan_flow_matrix(store, window, world, block_rows=2, block_cols=3)
        )
        # Edge tilings of the 6x6 world: one cell per area, ragged edge
        # blocks, and one block larger than the world.
        for kind, true_resolver in (("observed", None), ("true", resolver)):
            for block in ((1, 1), (4, 5), (7, 7)):
                assert engine.flow_matrix(window, kind, *block) == (
                    ref.full_scan_flow_matrix(
                        store, window, world, kind, true_resolver, *block
                    )
                )
        # k = 40 asks for more cells than any window of the 6x6 world holds.
        for k in (1, 5, 40):
            assert engine.top_cells(window, k) == ref.full_scan_top_cells(store, window, k)
    for user in sorted(store.users()):
        assert engine.epsilon_spent(user, FULL) == ref.full_scan_epsilon_spent(
            store, user, FULL
        )
        assert engine.trajectory(user) == ref.full_scan_trajectory(store, user)
    assert store.users() == ref.full_scan_users(store)
    assert store.times() == ref.full_scan_times(store)


@pytest.fixture(scope="module")
def canonical(world, db, engine):
    """The 1-shard serial fingerprint every other shape must equal."""
    with TraceStore(":memory:") as store:
        run_release_rounds_batched(
            world, db, engine, rng=RNG, shards=1, backend="serial", store=store
        )
        return _fingerprint(store, world)


def _store_run(world, db, engine, shards, backend, store=None):
    store = store if store is not None else TraceStore(":memory:")
    server = run_release_rounds_batched(
        world, db, engine, rng=RNG, shards=shards, backend=backend,
        store=store,
    )
    return server, store


# ----------------------------------------------------------------------
# the determinism matrix
# ----------------------------------------------------------------------


class TestDeterminismMatrix:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_every_backend_and_shard_count_answers_identically(
        self, shards, backend, world, db, engine, resolver, canonical
    ):
        _, store = _store_run(world, db, engine, shards, backend)
        with store:
            assert _fingerprint(store, world) == canonical
            _assert_matches_full_scan(store, world, resolver)

    def test_epsilon_spend_equals_the_live_ledger(self, world, db, engine):
        # The query folds stored rows through the same BudgetLedger
        # accumulation the server charged during the run, so the floats are
        # identical, not merely close.
        server, store = _store_run(world, db, engine, 5, "serial")
        with store:
            engine_q = QueryEngine(store, world=world)
            for user in sorted(db.users()):
                assert engine_q.epsilon_spent(user, FULL) == server.ledger.spent(user)


# ----------------------------------------------------------------------
# kill-resume: a rebuilt store answers like an uninterrupted one
# ----------------------------------------------------------------------


class TestKillResume:
    @pytest.mark.parametrize("shards_done", [0, 3, 7])
    def test_resumed_store_answers_identically(
        self, shards_done, world, db, engine, resolver, canonical, tmp_path
    ):
        # Leave the store looking like a run killed after `shards_done`
        # whole-shard commits, resume it, then query the reopened file.
        path = tmp_path / "killed.sqlite"
        plan = ShardPlan.build(sorted(db.users()), 7, rng=RNG)
        with TraceStore(path) as store:
            store.begin_run(
                RunManifest.for_run(engine, plan, world), expected_coverage(plan, db)
            )
            committer = Server(world, store=store)
            for users, times, batch in stream_shard_releases(
                engine, db, plan, only_shards=frozenset(range(shards_done))
            ):
                committer.ingest_shard(
                    users, times, batch, shard=plan.shard_of(int(users[0]))
                )
        run_release_rounds_batched(
            world, db, engine, rng=RNG, shards=7, backend="serial",
            store=str(path), resume=True,
        )
        with TraceStore(path) as store:
            assert _fingerprint(store, world) == canonical
            _assert_matches_full_scan(store, world, resolver)


# ----------------------------------------------------------------------
# awkward stores
# ----------------------------------------------------------------------


class TestAwkwardStores:
    def test_empty_window_raises_data_error_on_both_sides(self, world, db, engine):
        _, store = _store_run(world, db, engine, 2, "serial")
        with store:
            engine_q = QueryEngine(store, world=world)
            beyond = Window(HORIZON + 3, HORIZON + 5)
            with pytest.raises(DataError, match="no observations"):
                engine_q.contact_rate(beyond)
            with pytest.raises(DataError, match="no observations"):
                ref.full_scan_contact_rate(store, beyond)
            # The non-raising queries agree on emptiness instead.
            assert engine_q.flow_matrix(beyond) == ref.full_scan_flow_matrix(
                store, beyond, world
            )
            assert engine_q.top_cells(beyond, 3) == ref.full_scan_top_cells(
                store, beyond, 3
            )

    def test_memory_store_answers_like_a_file_store(
        self, world, db, engine, canonical, tmp_path
    ):
        _, disk = _store_run(
            world, db, engine, 5, "serial", store=TraceStore(tmp_path / "disk.sqlite")
        )
        with disk:
            assert _fingerprint(disk, world) == canonical

    def test_engine_opens_and_closes_a_path(self, world, db, engine, tmp_path):
        path = tmp_path / "owned.sqlite"
        _, store = _store_run(world, db, engine, 2, "serial", store=TraceStore(path))
        store.close()
        with TraceStore(path) as readback:
            want = ref.full_scan_flow_matrix(readback, FULL, world)
        with QueryEngine(path) as engine_q:
            # World comes from the run manifest — no world= needed.
            assert engine_q.flow_matrix(FULL) == want
        with pytest.raises(StoreError):
            engine_q.store.users()  # closed on context exit

    def test_true_kind_refused_without_true_summaries(self, world, engine):
        # A store whose commits never passed true_cells has no kind-1 rows;
        # asking for them must fail loudly, not answer zeros.
        with TraceStore(":memory:") as store:
            batch = engine.release_batch(
                np.array([0, 1, 2]), rng=np.random.default_rng(0)
            )
            store.commit_shard(0, _prepared(np.array([1, 2, 3]), np.array([0, 0, 0]), batch))
            assert store.maintains_true_summaries() is False
            engine_q = QueryEngine(store, world=world)
            engine_q.contact_rate(Window(0, 0))  # observed side fine
            with pytest.raises(StoreError, match="no true-side"):
                engine_q.contact_rate(Window(0, 0), kind="true")

    def test_unknown_kind_is_validation_error(self, world, db, engine):
        _, store = _store_run(world, db, engine, 1, "serial")
        with store:
            engine_q = QueryEngine(store, world=world)
            with pytest.raises(ValidationError, match="kind"):
                engine_q.contact_rate(FULL, kind="snapped")

    def test_bare_store_without_manifest_needs_world(self, engine):
        with TraceStore(":memory:") as store:
            # One 2-step trace, so the window holds a real transition and
            # the area regrouping actually needs the grid geometry.
            batch = engine.release_batch(np.array([0, 1]), rng=np.random.default_rng(0))
            store.commit_shard(0, _prepared(np.array([1, 1]), np.array([0, 1]), batch))
            engine_q = QueryEngine(store)
            with pytest.raises(ValidationError, match="pass world="):
                engine_q.flow_matrix(Window(0, 1))
            # Top-k needs no geometry: it sums per cell id.
            assert engine_q.top_cells(Window(0, 1), 3) == ref.full_scan_top_cells(
                store, Window(0, 1), 3
            )

    def test_negative_cell_id_in_a_block_is_a_store_error(self, engine):
        # Top-k indexes a dense array by cell id; a corrupt block must not
        # wrap around to the last cell.
        with TraceStore(":memory:") as store:
            batch = engine.release_batch(np.array([0]), rng=np.random.default_rng(0))
            store.commit_shard(0, _prepared(np.array([1]), np.array([0]), batch))
            corrupt = np.array([-1, 1], dtype="<i4").tobytes()
            store.connection.execute("UPDATE round_blocks SET cells = ?", (corrupt,))
            with pytest.raises(StoreError, match="cell id -1"):
                QueryEngine(store).top_cells(Window(0, 0), 1)

    def test_top_cells_scratch_is_bounded_by_the_window_records(self, engine):
        # Two records, ids 3 and 2**26: a dense per-id sum would size its
        # scratch by the largest id (512 MiB of int64), not by the records.
        with TraceStore(":memory:") as store:
            batch = engine.release_batch(np.array([0, 1]), rng=np.random.default_rng(0))
            batch = replace(batch, cells=np.array([3, 2**26]))
            store.commit_shard(0, _prepared(np.array([1, 2]), np.array([0, 0]), batch))
            engine_q = QueryEngine(store)
            window = Window(0, 0)
            engine_q.contact_rate(window)  # reads the round's cells
            tracemalloc.start()
            try:
                got = engine_q.top_cells(window, 2)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert got == [(3, 1), (2**26, 1)] == ref.full_scan_top_cells(store, window, 2)
            assert peak < 2**20, peak

    def test_world_contradicting_the_manifest_is_refused(self, world, db, engine):
        _, store = _store_run(world, db, engine, 2, "serial")
        with store:
            want = ref.full_scan_flow_matrix(store, FULL, world, block_rows=3, block_cols=3)
            # Same cell count, other shape; same shape, other cell size.
            for wrong in (GridWorld(12, 3), GridWorld(6, 6, cell_size=2.0)):
                engine_q = QueryEngine(store, world=wrong)
                with pytest.raises(ValidationError) as excinfo:
                    engine_q.flow_matrix(FULL, block_rows=3, block_cols=3)
                assert repr(wrong) in str(excinfo.value)
                assert repr(world) in str(excinfo.value)
            agreeing = QueryEngine(store, world=GridWorld(6, 6))
            assert agreeing.flow_matrix(FULL, block_rows=3, block_cols=3) == want

    def test_world_is_checked_against_a_manifest_recorded_after_open(
        self, world, db, engine
    ):
        with TraceStore(":memory:") as store:
            engine_q = QueryEngine(store, world=GridWorld(12, 3))
            # A bare store takes any world.
            assert engine_q.flow_matrix(FULL) == ref.full_scan_flow_matrix(
                store, FULL, GridWorld(12, 3)
            )
            plan = ShardPlan.build(sorted(db.users()), 2, rng=RNG)
            store.begin_run(
                RunManifest.for_run(engine, plan, world), expected_coverage(plan, db)
            )
            with pytest.raises(ValidationError, match="contradicts the run manifest"):
                engine_q.flow_matrix(FULL)


# ----------------------------------------------------------------------
# coverage gaps: the frontier refusal rule
# ----------------------------------------------------------------------


def _staggered_world_db():
    """A population whose shards cover *different* round ranges.

    Users are assigned to shards in contiguous sorted blocks, so with 12
    users over 4 shards, users 0-5 (shards 0-1) span rounds 0-3 and users
    6-11 (shards 2-3) span rounds 2-7: early windows are answerable from
    half the shards while later windows need all of them.
    """
    world = GridWorld(6, 6)
    db = TraceDB()
    for user in range(12):
        start, end = (0, 3) if user < 6 else (2, HORIZON - 1)
        for time in range(start, end + 1):
            db.record(user, time, (user * 7 + time * 3) % world.n_cells)
    return world, db


@pytest.fixture(scope="module")
def staggered():
    world, sdb = _staggered_world_db()
    engine = PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)
    plan = ShardPlan.build(sorted(sdb.users()), 4, rng=RNG)
    parts = {
        plan.shard_of(int(users[0])): (users, times, batch)
        for users, times, batch in stream_shard_releases(engine, sdb, plan)
    }
    return world, sdb, engine, plan, parts


def _commit(world, store, plan, parts, shards):
    committer = Server(world, store=store)
    for shard in shards:
        users, times, batch = parts[shard]
        committer.ingest_shard(users, times, batch, shard=shard)


class TestCoverageGaps:
    def test_half_covered_window_names_missing_shards(self, staggered):
        world, sdb, engine, plan, parts = staggered
        with TraceStore(":memory:") as store:
            store.begin_run(
                RunManifest.for_run(engine, plan, world), expected_coverage(plan, sdb)
            )
            _commit(world, store, plan, parts, [0, 1])
            engine_q = QueryEngine(store, world=world)
            # Shards 0-1 cover every round <= 1, so early windows answer
            # and match the reference over the committed prefix ...
            early = Window(0, 1)
            assert engine_q.missing_shards(1) == []
            assert engine_q.contact_rate(early) == ref.full_scan_contact_rate(
                store, early
            )
            # ... while any window reaching round 2 straddles the gap.
            with pytest.raises(
                SnapshotUnavailableError, match=r"waiting on shard commit\(s\) \[2, 3\]"
            ):
                engine_q.contact_rate(Window(0, 4))
            with pytest.raises(SnapshotUnavailableError):
                engine_q.top_cells(Window(2, 3), 3)
            with pytest.raises(SnapshotUnavailableError):
                engine_q.epsilon_spent(0, Window(0, 5))
            _commit(world, store, plan, parts, [2, 3])
            full = Window(0, HORIZON - 1)
            assert engine_q.contact_rate(full) == ref.full_scan_contact_rate(store, full)

    def test_derived_coverage_from_manifest_refuses_partial_runs(
        self, world, db, engine
    ):
        # The schedule recorded with the run manifest gates every window:
        # here every shard has rows at every round, so a half-committed
        # run refuses until the rest arrives.
        plan = ShardPlan.build(sorted(db.users()), 4, rng=RNG)
        parts = {
            plan.shard_of(int(users[0])): (users, times, batch)
            for users, times, batch in stream_shard_releases(engine, db, plan)
        }
        with TraceStore(":memory:") as store:
            store.begin_run(
                RunManifest.for_run(engine, plan, world), expected_coverage(plan, db)
            )
            _commit(world, store, plan, parts, [0, 3])
            engine_q = QueryEngine(store, world=world)
            assert engine_q.missing_shards(HORIZON - 1) == [1, 2]
            with pytest.raises(SnapshotUnavailableError, match=r"\[1, 2\]"):
                engine_q.contact_rate(Window(0, 3))
            _commit(world, store, plan, parts, [1, 2])
            assert engine_q.missing_shards(HORIZON - 1) == []
            engine_q.contact_rate(Window(0, 3))  # answers once complete


# ----------------------------------------------------------------------
# the recorded schedule: one coverage rule for every reader
# ----------------------------------------------------------------------


def _named_shards(refusal):
    """The shard list a refusal message says it is waiting on."""
    match = re.search(r"waiting on shard commit\(s\) \[([\d, ]*)\]", str(refusal))
    assert match is not None, str(refusal)
    return [int(shard) for shard in match.group(1).split(",") if shard.strip()]


class TestRecordedCoverage:
    def test_finished_sparse_run_answers_like_its_full_scans(self, tmp_path):
        # Sparse shards never hold rows at every round, so only the
        # recorded schedule, not "every shard at every round", lets a
        # finished run answer its whole horizon.
        world = GridWorld(10, 10)
        sparse = gowalla_like(world, n_users=40, rng=3)
        engine = PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)
        path = tmp_path / "sparse.sqlite"
        run_release_rounds_batched(world, sparse, engine, rng=5, shards=4, store=str(path))
        with QueryEngine(path) as engine_q:
            store = engine_q.store
            times = store.times()
            window = Window(times[0], times[-1])
            assert engine_q.missing_shards(window.end) == []
            assert engine_q.contact_rate(window) == ref.full_scan_contact_rate(store, window)
            assert engine_q.top_cells(window, 5) == ref.full_scan_top_cells(store, window, 5)
            assert engine_q.flow_matrix(window) == ref.full_scan_flow_matrix(
                store, window, world
            )

    def test_live_views_and_queries_refuse_the_same_rounds(self, staggered):
        # At every commit prefix of every commit order and every scheduled
        # round r, metrics_at(r) refuses exactly when missing_shards(r) is
        # non-empty, and both refusals name the same shards.
        world, sdb, engine, plan, parts = staggered
        schedule = expected_coverage(plan, sdb)
        rounds = sorted(frozenset().union(*schedule.values()))
        for order in itertools.permutations(sorted(parts)):
            with TraceStore(":memory:") as store:
                store.begin_run(RunManifest.for_run(engine, plan, world), schedule)
                server = Server(world, store=store)
                server.attach_metrics(default_views(world), schedule)
                engine_q = QueryEngine(store, world=world)
                for prefix in range(len(order) + 1):
                    if prefix:
                        users, times, batch = parts[order[prefix - 1]]
                        server.ingest_shard(users, times, batch, shard=order[prefix - 1])
                    for time in rounds:
                        missing = engine_q.missing_shards(time)
                        if not missing:
                            server.metrics_at(time)
                            continue
                        with pytest.raises(SnapshotUnavailableError) as live:
                            server.metrics_at(time)
                        with pytest.raises(SnapshotUnavailableError) as query:
                            engine_q.top_cells(Window(rounds[0], time), 3)
                        assert _named_shards(live.value) == missing
                        assert _named_shards(query.value) == missing

    def test_engine_opened_before_the_run_begins_refuses_half_windows(self, staggered):
        world, sdb, engine, plan, parts = staggered
        with TraceStore(":memory:") as store:
            engine_q = QueryEngine(store, world=world)
            assert engine_q.missing_shards(HORIZON - 1) == []  # no run: owes nothing
            store.begin_run(
                RunManifest.for_run(engine, plan, world), expected_coverage(plan, sdb)
            )
            _commit(world, store, plan, parts, [0, 1])
            with pytest.raises(
                SnapshotUnavailableError, match=r"waiting on shard commit\(s\) \[2, 3\]"
            ):
                engine_q.contact_rate(Window(0, 4))
            assert engine_q.missing_shards(1) == []

    def test_marks_are_read_only_past_the_frontier(self, staggered, monkeypatch):
        # Commit marks are only ever added, so once a round is complete no
        # later query re-reads shard_commits for it (the engine reads the
        # marks through TraceStore.owed).
        world, sdb, engine, plan, parts = staggered
        with TraceStore(":memory:") as store:
            store.begin_run(
                RunManifest.for_run(engine, plan, world), expected_coverage(plan, sdb)
            )
            _commit(world, store, plan, parts, [0, 1, 2, 3])
            engine_q = QueryEngine(store, world=world)
            reads = []
            owed = store.owed
            monkeypatch.setattr(store, "owed", lambda: reads.append(1) or owed())
            assert engine_q.missing_shards(HORIZON - 1) == []
            assert len(reads) == 1
            for window in WINDOWS:
                engine_q.contact_rate(window)
            assert len(reads) == 1

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_fresh_engine_owes_what_the_schedule_rule_owes(self, world, engine, data):
        # A fresh engine reads what the run still owes in one statement;
        # its answer at every round must be Coverage's over the whole
        # schedule fed every mark, and stay so as more marks land.
        schedule = data.draw(
            st.dictionaries(
                st.integers(0, 5),
                st.frozensets(st.integers(0, 9), min_size=1, max_size=6),
                min_size=1,
                max_size=4,
            ),
            label="schedule",
        )
        scheduled = sorted((shard, time) for shard, rounds in schedule.items() for time in rounds)
        stray = st.tuples(st.integers(0, 6), st.integers(0, 10))  # marks no schedule holds
        pairs = st.sampled_from(scheduled) | stray
        first = data.draw(st.sets(pairs), label="first marks")
        more = data.draw(st.sets(pairs), label="more marks") - first
        plan = ShardPlan.build(range(6), 6, rng=0)
        expected = Coverage(schedule)

        def mark(store, marks):
            with store.connection:
                store.connection.executemany(
                    "INSERT INTO shard_commits (shard, round, n_rows) VALUES (?, ?, 1)",
                    sorted(marks),
                )
            expected.commit(marks)

        def assert_owes_as_scheduled(engine_q):
            for upto in range(-1, 12):
                assert engine_q.missing_shards(upto) == expected.missing(upto), upto

        with TraceStore(":memory:") as store:
            store.begin_run(RunManifest.for_run(engine, plan, world), schedule)
            mark(store, first)
            engine_q = QueryEngine(store, world=world)
            assert_owes_as_scheduled(engine_q)
            mark(store, more)
            assert_owes_as_scheduled(engine_q)
            assert_owes_as_scheduled(QueryEngine(store, world=world))


# ----------------------------------------------------------------------
# the interleaving property
# ----------------------------------------------------------------------


class TestInterleavingProperty:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_any_interleaving_refuses_or_answers_exactly(self, staggered, data):
        # For any commit order, any prefix, and any probe window: a query
        # either raises SnapshotUnavailableError (exactly when shards are
        # missing at or before the window's end) or returns the bit-exact
        # full-scan answer over what the store currently holds.
        world, sdb, engine, plan, parts = staggered
        order = data.draw(st.permutations(sorted(parts)))
        prefix = data.draw(st.integers(min_value=0, max_value=len(order)))
        windows = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, HORIZON - 1), st.integers(0, HORIZON - 1)
                ).map(lambda ends: Window(min(ends), max(ends))),
                min_size=1,
                max_size=4,
            )
        )
        with TraceStore(":memory:") as store:
            store.begin_run(
                RunManifest.for_run(engine, plan, world), expected_coverage(plan, sdb)
            )
            _commit(world, store, plan, parts, order[:prefix])
            engine_q = QueryEngine(store, world=world)
            for window in windows:
                if engine_q.missing_shards(window.end):
                    with pytest.raises(SnapshotUnavailableError):
                        engine_q.contact_rate(window)
                    continue
                assert engine_q.top_cells(window, 4) == ref.full_scan_top_cells(
                    store, window, 4
                )
                assert engine_q.flow_matrix(window) == ref.full_scan_flow_matrix(
                    store, window, world
                )
                try:
                    got = engine_q.contact_rate(window)
                except DataError:
                    with pytest.raises(DataError):
                        ref.full_scan_contact_rate(store, window)
                else:
                    assert got == ref.full_scan_contact_rate(store, window)


# ----------------------------------------------------------------------
# long-lived engines: the per-round state follows every store change
# ----------------------------------------------------------------------


def _assert_answers_like_full_scans(engine_q, store, world, window, blocks=(4, 4)):
    assert engine_q.top_cells(window, 4) == ref.full_scan_top_cells(store, window, 4)
    assert engine_q.flow_matrix(window, "observed", *blocks) == ref.full_scan_flow_matrix(
        store, window, world, block_rows=blocks[0], block_cols=blocks[1]
    )
    try:
        got = engine_q.contact_rate(window)
    except DataError:
        with pytest.raises(DataError):
            ref.full_scan_contact_rate(store, window)
    else:
        assert got == ref.full_scan_contact_rate(store, window)


class _ConnectionProxy:
    """A store connection that counts round-block reads and can inject a commit.

    ``commit``, when set, runs once, just before the next ``round_blocks``
    read, through the same store: that read then sees a store the
    engine's stamp check at the start of the query did not.
    """

    def __init__(self, connection, commit=None):
        self._connection = connection
        self.commit = commit
        self.block_reads = 0

    def __getattr__(self, name):
        return getattr(self._connection, name)

    def __enter__(self):
        return self._connection.__enter__()

    def __exit__(self, *exc):
        return self._connection.__exit__(*exc)

    def execute(self, sql, *args):
        if "FROM round_blocks" in sql:
            self.block_reads += 1
            commit, self.commit = self.commit, None
            if commit is not None:
                commit()
        return self._connection.execute(sql, *args)


@pytest.fixture
def proxied():
    """``wrap(store, commit=None)``: route ``store.connection`` through a proxy."""
    wrapped = []

    def wrap(store, commit=None):
        proxy = _ConnectionProxy(store._connection, commit)
        wrapped.append((store, store._connection))
        store._connection = proxy
        return proxy

    yield wrap
    for store, connection in wrapped:
        store._connection = connection


class TestLongLivedEngine:
    @pytest.mark.parametrize("begun", [True, False], ids=["run", "bare"])
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_one_engine_through_every_commit_refuses_or_answers_exactly(
        self, staggered, begun, data
    ):
        # The interleaving property with one engine living through every
        # commit, probing windows between commits.  A bare store (no run
        # begun) merges every commit into the blocks it already wrote, so
        # the rounds the engine holds go stale at each commit; the commits
        # run through the engine's own connection, so only total_changes
        # tells the engine.
        world, sdb, engine, plan, parts = staggered
        order = data.draw(st.permutations(sorted(parts)))
        window = st.tuples(st.integers(0, HORIZON - 1), st.integers(0, HORIZON - 1)).map(
            lambda ends: Window(min(ends), max(ends))
        )
        with TraceStore(":memory:") as store:
            if begun:
                store.begin_run(
                    RunManifest.for_run(engine, plan, world), expected_coverage(plan, sdb)
                )
            engine_q = QueryEngine(store, world=world)
            for shard in [None, *order]:
                if shard is not None:
                    _commit(world, store, plan, parts, [shard])
                for probe in data.draw(st.lists(window, min_size=1, max_size=3)):
                    if engine_q.missing_shards(probe.end):
                        with pytest.raises(SnapshotUnavailableError):
                            engine_q.top_cells(probe, 4)
                        continue
                    blocks = data.draw(st.sampled_from([(4, 4), (2, 3)]))
                    _assert_answers_like_full_scans(engine_q, store, world, probe, blocks)

    def test_commits_by_a_second_store_on_the_path_are_seen(self, staggered, tmp_path):
        # Another connection's commit moves PRAGMA data_version for the
        # engine's connection, which never writes.
        world, _, _, plan, parts = staggered
        path = tmp_path / "shared.sqlite"
        with TraceStore(path) as writer:
            _commit(world, writer, plan, parts, [0, 2])
        with QueryEngine(path, world=world) as engine_q:
            for window in WINDOWS:  # every round warm
                _assert_answers_like_full_scans(engine_q, engine_q.store, world, window)
            with TraceStore(path) as writer:
                _commit(world, writer, plan, parts, [1, 3])
            for window in WINDOWS:
                _assert_answers_like_full_scans(engine_q, engine_q.store, world, window)

    def test_warm_true_query_reads_no_meta(self, world, db, engine):
        # The true-side flag never changes once written, so a warm
        # kind="true" query checks the stamp but reads no meta row.
        _, store = _store_run(world, db, engine, 2, "serial")
        with store:
            engine_q = QueryEngine(store, world=world)
            engine_q.contact_rate(FULL, kind="true")
            statements = []
            store.connection.set_trace_callback(statements.append)
            try:
                engine_q.contact_rate(FULL, kind="true")
            finally:
                store.connection.set_trace_callback(None)
            assert statements
            assert [sql for sql in statements if "FROM meta" in sql] == []

    def test_true_kind_answers_once_the_first_true_commit_lands(self, world, engine):
        with TraceStore(":memory:") as store:
            engine_q = QueryEngine(store, world=world)
            with pytest.raises(StoreError, match="no true-side"):
                engine_q.contact_rate(Window(0, 0), kind="true")
            batch = engine.release_batch(np.array([0, 1]), rng=np.random.default_rng(0))
            store.commit_shard(
                0, _prepared(np.array([1, 2]), np.array([0, 0]), batch, true_cells=[4, 4])
            )
            assert engine_q.contact_rate(Window(0, 0), kind="true").observations == 2

    def test_raw_block_update_is_seen_by_the_next_query(self, engine):
        with TraceStore(":memory:") as store:
            batch = engine.release_batch(np.array([0, 1]), rng=np.random.default_rng(0))
            store.commit_shard(0, _prepared(np.array([1, 2]), np.array([0, 0]), batch))
            engine_q = QueryEngine(store)
            window = Window(0, 0)
            assert engine_q.contact_rate(window).observations == 2
            engine_q.top_cells(window, 1)
            store.connection.execute(
                "UPDATE round_blocks SET cells = ?",
                (np.array([7, 5], dtype="<i4").tobytes(),),
            )
            assert engine_q.top_cells(window, 1) == [(7, 5)]
            assert engine_q.contact_rate(window).observations == 5
            # Rolling back leaves total_changes where it was: rows read
            # inside the transaction must not have been kept.
            store.connection.rollback()
            assert engine_q.contact_rate(window).observations == 2
            corrupt = np.array([-1, 1], dtype="<i4").tobytes()
            with store.connection:
                store.connection.execute("UPDATE round_blocks SET cells = ?", (corrupt,))
            for _ in range(2):  # on every query whose window holds it
                with pytest.raises(StoreError, match="cell id -1"):
                    engine_q.top_cells(Window(0, 3), 1)

    def test_commit_between_the_stamp_check_and_the_gap_read(
        self, staggered, proxied
    ):
        # Rounds 0-3 are warm from shards 0 and 2.  Shards 1 and 3 commit
        # just before the gap read of rounds 4-7; shard 1 adds to rounds
        # 0-3 and shard 3 to rounds 2-7.  Kept rounds joined to the gap read
        # would count shards 1 and 3 only past round 3: the full scan of
        # neither prefix.  The answer must be one prefix's full scan.
        world, _, _, plan, parts = staggered
        window = Window(0, HORIZON - 1)
        for query in ("contact_rate", "top_cells", "flow_matrix"):
            with TraceStore(":memory:") as store:
                _commit(world, store, plan, parts, [0, 2])
                engine_q = QueryEngine(store, world=world)
                _assert_answers_like_full_scans(engine_q, store, world, Window(0, 3))
                proxy = proxied(store, lambda: _commit(world, store, plan, parts, [1, 3]))
                ask = {
                    "contact_rate": lambda: engine_q.contact_rate(window),
                    "top_cells": lambda: engine_q.top_cells(window, 40),
                    "flow_matrix": lambda: engine_q.flow_matrix(window),
                }[query]
                got = ask()
                assert proxy.commit is None  # the commit landed mid-query
                want = {
                    "contact_rate": lambda: ref.full_scan_contact_rate(store, window),
                    "top_cells": lambda: ref.full_scan_top_cells(store, window, 40),
                    "flow_matrix": lambda: ref.full_scan_flow_matrix(store, window, world),
                }[query]
                assert got == want()
                assert ask() == want()

    def test_commits_during_every_read_cost_one_re_read(self, staggered, proxied):
        # A write lands before each block read: the gap read's rounds are
        # dropped and the window is read once more, in one range read,
        # which answers the query but is not kept.
        world, _, _, plan, parts = staggered
        with TraceStore(":memory:") as store:
            _commit(world, store, plan, parts, sorted(parts))
            engine_q = QueryEngine(store, world=world)
            assert engine_q.contact_rate(Window(0, 3))
            connection = store.connection

            def touch():
                proxy.commit = touch
                with connection:
                    connection.execute("UPDATE meta SET value = value WHERE key = 'schema_version'")

            proxy = proxied(store, touch)
            window = Window(0, HORIZON - 1)
            assert engine_q.contact_rate(window) == ref.full_scan_contact_rate(store, window)
            assert proxy.block_reads == 2
            assert engine_q._state == {}

    def test_unbounded_window_on_a_warm_engine_reads_nothing(self, staggered, proxied):
        world, _, _, plan, parts = staggered
        with TraceStore(":memory:") as store:
            _commit(world, store, plan, parts, sorted(parts))
            engine_q = QueryEngine(store, world=world)
            unbounded = Window(0, 2**62)
            for window in (Window(0, 3), Window(6, 7)):
                _assert_answers_like_full_scans(engine_q, store, world, window)
            proxy = proxied(store)
            # One range read per gap and column: rounds 4-5 and 8 onwards.
            _assert_answers_like_full_scans(engine_q, store, world, unbounded)
            assert proxy.block_reads == 2 * 2
            proxy.block_reads = 0
            _assert_answers_like_full_scans(engine_q, store, world, unbounded)
            _assert_answers_like_full_scans(engine_q, store, world, Window(-5, 2**62))
            assert proxy.block_reads == 2 * 1  # only the rounds before 0

    def test_sweeping_tilings_keeps_flow_state_for_one(self, world, db, engine, resolver):
        _, store = _store_run(world, db, engine, 2, "serial")
        with store:
            engine_q = QueryEngine(store, world=world)
            tilings = [(1, 1), (2, 3), (4, 4), (4, 5), (7, 7)]
            for kind, true_resolver in (("observed", None), ("true", resolver)):
                for blocks in tilings:
                    assert engine_q.flow_matrix(FULL, kind, *blocks) == (
                        ref.full_scan_flow_matrix(store, FULL, world, kind, true_resolver, *blocks)
                    )
            flows = sorted(key for key in engine_q._state if key[0] == "flows")
            assert flows == [("flows", 0, 7, 7), ("flows", 1, 7, 7)]
            engine_q.close()
            assert engine_q._state == {}


# ----------------------------------------------------------------------
# piecewise commits: one user's trace across several commits
# ----------------------------------------------------------------------


def _take(batch, index):
    return ReleaseBatch(
        points=batch.points[index],
        exact=batch.exact[index],
        epsilons=batch.epsilons[index],
        cells=np.asarray(batch.cells)[index],
        mechanism=batch.mechanism,
    )


@pytest.fixture(scope="module")
def shard_parts(world, db, engine):
    plan = ShardPlan.build(sorted(db.users()), 3, rng=RNG)
    return [
        (plan.shard_of(int(users[0])), users, times, batch)
        for users, times, batch in stream_shard_releases(engine, db, plan)
    ]


def _assert_every_window_matches(store, world):
    # No run has begun on the store, so it owes nothing: every window
    # answers over what is committed.
    engine_q = QueryEngine(store, world=world)
    for start in range(HORIZON):
        for end in range(start, HORIZON):
            window = Window(start, end)
            assert engine_q.flow_matrix(window) == ref.full_scan_flow_matrix(
                store, window, world
            )
            assert engine_q.flow_matrix(window, block_rows=2, block_cols=3) == (
                ref.full_scan_flow_matrix(store, window, world, block_rows=2, block_cols=3)
            )
            assert engine_q.top_cells(window, 4) == ref.full_scan_top_cells(store, window, 4)
            try:
                got = engine_q.contact_rate(window)
            except DataError:
                with pytest.raises(DataError):
                    ref.full_scan_contact_rate(store, window)
            else:
                assert got == ref.full_scan_contact_rate(store, window)


class TestPiecewiseCommits:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_split_traces_answer_like_whole_ones(self, world, shard_parts, data):
        # Each shard's rows are cut into round buckets committed separately,
        # in any order, so most users' traces span several commits and the
        # flows between them come from the stitch against stored rows.
        cuts = data.draw(st.sets(st.integers(1, HORIZON - 1), max_size=HORIZON - 1))
        bounds = [0, *sorted(cuts), HORIZON]
        pieces = []
        for shard, users, times, batch in shard_parts:
            for low, high in zip(bounds[:-1], bounds[1:]):
                rows = np.flatnonzero((times >= low) & (times < high))
                if rows.size:
                    pieces.append((shard, users[rows], times[rows], _take(batch, rows)))
        order = data.draw(st.permutations(range(len(pieces))))
        prefix = data.draw(st.integers(0, len(pieces)))
        with TraceStore(":memory:") as store:
            for step, index in enumerate(order):
                if step == prefix:
                    _assert_every_window_matches(store, world)
                shard, users, times, batch = pieces[index]
                assert store.commit_shard(shard, _prepared(users, times, batch))
            _assert_every_window_matches(store, world)


# ----------------------------------------------------------------------
# window helpers
# ----------------------------------------------------------------------


class TestWindows:
    def test_validation(self):
        with pytest.raises(ValidationError, match="precedes"):
            Window(3, 2)
        with pytest.raises(ValidationError, match="width"):
            tumbling_windows(0, 9, 0)
        with pytest.raises(ValidationError, match="width/step"):
            sliding_windows(0, 9, 3, step=0)

    def test_tumbling_tiles_without_overlap(self):
        windows = tumbling_windows(0, 7, 3)
        assert windows == [Window(0, 2), Window(3, 5), Window(6, 7)]
        assert sum(len(w) for w in windows) == 8

    def test_sliding_advances_by_step(self):
        windows = sliding_windows(0, 5, 4, step=2)
        assert windows == [Window(0, 3), Window(2, 5), Window(4, 5)]

    def test_membership_and_length(self):
        window = Window(2, 5)
        assert len(window) == 4
        assert 2 in window and 5 in window and 6 not in window
