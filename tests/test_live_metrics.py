"""Live metric views: every snapshot equals a from-scratch batch recompute.

The headline contract of ``repro.server.live_metrics`` is bitwise, not
approximate: for every round ``r``, ``server.metrics_at(r)`` — maintained
incrementally by folding each shard commit the moment it lands — equals
:func:`~repro.server.live_metrics.batch_recompute` over the raw release
rows, under **every** execution shape.  This file pins that matrix
(shards {1, 2, 5, 7} x every registered backend),
the shard-count invariance of the values
themselves, equality against independently-coded references (the E1/E11
flow counter and the E2 contact-rate estimator), a Hypothesis property
driving the real registry through arbitrary commit orders, and the
snapshot semantics around it: unavailable rounds name the shards they wait
on, frozen values are immutable, and every misuse fails loudly — before
the refused shard touches the store, trace or ledger.

The kill-resume half of the contract lives in ``tests/test_store_resume.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mechanisms.base import ReleaseBatch
from repro.engine import PrivacyEngine, backend_names, ensure_backend
from repro.engine.sharding import ShardPlan, stream_shard_releases
from repro.epidemic.analysis import pair_events
from repro.epidemic.monitor import LocationMonitor
from repro.errors import DataError, SnapshotUnavailableError, ValidationError
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like
from repro.mobility.trajectory import TraceDB
from repro.store import PreparedShard, TraceStore
from repro.server.live_metrics import (
    ContactRateView,
    FlowMatrixView,
    LiveMetricRegistry,
    MonitoringUtilityView,
    batch_recompute,
    default_views,
    expected_coverage,
)
from repro.server.pipeline import Server, run_release_rounds_batched

N_USERS = 16
HORIZON = 8
RNG = 11

SHARD_COUNTS = [1, 2, 5, 7]


@pytest.fixture(scope="module")
def world():
    return GridWorld(6, 6)


@pytest.fixture(scope="module")
def db(world):
    return geolife_like(world, n_users=N_USERS, horizon=HORIZON, rng=3)


@pytest.fixture(scope="module")
def engine(world):
    return PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)


# One live backend per name, shared by every matrix cell that uses it —
# the pool backend pays worker spawn once per module, not per
# cell (the same amortisation the E8 sweep uses).
@pytest.fixture(scope="module", params=backend_names())
def backend(request):
    with ensure_backend(request.param) as instance:
        yield instance


def _plan(db, shards):
    return ShardPlan.build(sorted(db.users()), shards, rng=RNG)


def _raw_rows(world, engine, db, plan):
    """The full release row arrays a run over ``plan`` commits.

    Per-user RNG streams make these identical to what any backend and shard
    count ingests, so one serial capture serves every comparison.
    """
    parts = [
        (
            np.asarray(users, dtype=int),
            np.asarray(times, dtype=int),
            batch.points,
            np.asarray(batch.cells, dtype=int),
        )
        for users, times, batch in stream_shard_releases(engine, db, plan)
    ]
    users = np.concatenate([p[0] for p in parts])
    times = np.concatenate([p[1] for p in parts])
    points = np.concatenate([p[2] for p in parts])
    true_cells = np.concatenate([p[3] for p in parts])
    snapped = np.asarray(world.snap_batch(points), dtype=int)
    return users, times, points, true_cells, snapped


@pytest.fixture(scope="module")
def batch_values_of(world, db, engine):
    """``shards -> {round -> {view name -> value}}``, computed once per count."""
    cache = {}

    def get(shards):
        if shards not in cache:
            plan = _plan(db, shards)
            rows = _raw_rows(world, engine, db, plan)
            cache[shards] = batch_recompute(default_views(world), plan, *rows)
        return cache[shards]

    return get


def _live_run(world, db, engine, shards, backend):
    return run_release_rounds_batched(
        world, db, engine, rng=RNG, shards=shards, backend=backend,
        live_metrics=True,
    )


# ----------------------------------------------------------------------
# the determinism matrix
# ----------------------------------------------------------------------


class TestDeterminismMatrix:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_every_round_equals_batch_recompute(
        self, shards, backend, world, db, engine, batch_values_of
    ):
        server = _live_run(world, db, engine, shards, backend)
        want = batch_values_of(shards)
        assert set(server.metrics.rounds) == set(want)
        for r in server.metrics.rounds:
            # Plain ==: MonitoringReport / ContactSnapshot / FlowSnapshot
            # compare by exact float equality, so this is the bitwise claim.
            assert dict(server.metrics_at(r)) == want[r]

    def test_values_invariant_under_shard_count(self, batch_values_of):
        # The canonical fold order (rounds, shards, users) collapses to
        # (time, user) regardless of where the shard boundaries fall, so
        # the *values* — not just live-vs-batch agreement — are identical
        # across shard counts.
        reference = batch_values_of(1)
        for shards in SHARD_COUNTS[1:]:
            assert batch_values_of(shards) == reference


class TestBatchRecomputeInputs:
    """``batch_recompute`` refuses what would make its reference wrong."""

    @pytest.fixture(scope="class")
    def rows(self, world, engine, db):
        return _raw_rows(world, engine, db, _plan(db, 2))

    @pytest.mark.parametrize("plan_users, stray", [(range(4), 9), ((0, 2, 4), 1)])
    def test_row_of_a_user_outside_the_plan_is_refused(self, world, rows, plan_users, stray):
        users, times, points, true_cells, snapped = rows
        keep = np.isin(users, list(plan_users))
        at = np.flatnonzero(users == stray)[:2]  # two rows of a user the plan lacks
        take = np.r_[np.flatnonzero(keep), at]
        plan = ShardPlan.build(list(plan_users), 2, rng=RNG)
        with pytest.raises(DataError, match=f"user {stray} is not in the shard plan"):
            batch_recompute(
                default_views(world), plan,
                users[take], times[take], points[take], true_cells[take], snapped[take],
            )
        # Without the stray rows the same plan recomputes every round.
        kept = np.flatnonzero(keep)
        assert batch_recompute(
            default_views(world), plan,
            users[kept], times[kept], points[kept], true_cells[kept], snapped[kept],
        )

    def test_duplicate_view_names_are_refused(self, db, rows):
        with pytest.raises(ValidationError, match="duplicate"):
            batch_recompute([ContactRateView(), ContactRateView()], _plan(db, 2), *rows)

    def test_no_rows_at_or_before_upto_is_empty(self, world, db, rows):
        plan, views = _plan(db, 2), default_views(world)
        assert batch_recompute(views, plan, *(column[:0] for column in rows)) == {}
        assert batch_recompute(views, plan, *rows, upto=-1) == {}
        every = batch_recompute(views, plan, *rows)
        assert batch_recompute(views, plan, *rows, upto=2) == {r: every[r] for r in (0, 1, 2)}


@st.composite
def gapped_traces(draw, n_cells=36, horizon=6):
    """A small TraceDB whose users hold arbitrary (gapped) sets of rounds."""
    db = TraceDB()
    for user in range(draw(st.integers(1, 8))):
        for time in sorted(draw(st.sets(st.integers(0, horizon - 1), min_size=1))):
            db.record(user, time, draw(st.integers(0, n_cells - 1)))
    return db


class TestRegistryCommitOrder:
    """The real registry, fed real shards in any order, freezes batch values.

    Gapped traces give shards different round sets, so rounds freeze at
    different points of the commit sequence; after every commit each
    frozen round must already equal the from-scratch recompute and every
    other round must refuse.
    """

    @settings(deadline=None, max_examples=40)
    @given(db=gapped_traces(), shards=st.integers(1, 4), data=st.data())
    def test_any_commit_order_freezes_batch_values(self, world, engine, db, shards, data):
        plan = ShardPlan.build(sorted(db.users()), shards, rng=RNG)
        parts = {
            plan.shard_of(int(users[0])): (users, times, batch)
            for users, times, batch in stream_shard_releases(engine, db, plan)
        }
        want = batch_recompute(
            default_views(world), plan, *_raw_rows(world, engine, db, plan)
        )
        coverage = expected_coverage(plan, db)
        server = Server(world)
        server.attach_metrics(default_views(world), coverage)
        committed = set()
        for shard in data.draw(st.permutations(sorted(parts))):
            server.ingest_shard(*parts[shard], shard=shard)
            committed.add(shard)
            for r in server.metrics.rounds:
                ready = all(
                    owner in committed
                    for owner, owned in coverage.items()
                    if min(owned) <= r
                )
                if ready:
                    assert dict(server.metrics_at(r)) == want[r]
                else:
                    with pytest.raises(SnapshotUnavailableError):
                        server.metrics_at(r)
        assert server.metrics.frozen_rounds == tuple(sorted(want))


# ----------------------------------------------------------------------
# equality against independently-coded references
# ----------------------------------------------------------------------


class TestIndependentReferences:
    @pytest.fixture(scope="class")
    def run(self, world, db, engine):
        server = _live_run(world, db, engine, 5, "serial")
        rows = _raw_rows(world, engine, db, _plan(db, 5))
        return server, rows

    def test_flow_snapshots_match_flows_from_arrays(self, world, run):
        # The live E11 counters come from per-round pairing + flows_between;
        # the reference walks the user-major prefix trace with the original
        # flows_from_arrays counter.  Exact Counter equality, every round.
        server, (users, times, _, true_cells, snapped) = run
        monitor = LocationMonitor(world, 4, 4)
        for r in server.metrics.rounds:
            mask = times <= r
            order = np.lexsort((times[mask], users[mask]))  # user-major
            flows = server.metrics_at(r)["flows"]
            assert flows.true_flows == monitor.flows_from_arrays(
                users[mask][order], times[mask][order], true_cells[mask][order]
            )
            assert flows.observed_flows == monitor.flows_from_arrays(
                users[mask][order], times[mask][order], snapped[mask][order]
            )

    def test_contact_snapshots_match_estimator(self, run):
        # Occupancy is integer Counter arithmetic and the estimator is one
        # float expression, so the live value equals a from-scratch count
        # over the prefix bitwise.
        from collections import Counter

        server, (users, times, _, true_cells, snapped) = run
        for r in server.metrics.rounds:
            mask = times <= r
            contacts = server.metrics_at(r)["contacts"]
            observations = int(mask.sum())
            assert contacts.n_observations == observations
            for cells, rate, r0 in (
                (true_cells, contacts.true_contact_rate, contacts.r0_true),
                (snapped, contacts.observed_contact_rate, contacts.r0_observed),
            ):
                occupancy = Counter(zip(times[mask].tolist(), cells[mask].tolist()))
                want = 2.0 * pair_events(occupancy) / observations
                assert rate == want
                assert r0 == 0.3 * want / 0.1

    def test_monitoring_snapshot_tracks_direct_means(self, world, run):
        server, (users, times, points, true_cells, _) = run
        final = server.metrics.rounds[-1]
        report = server.metrics_at(final)["monitoring"]
        errors = np.hypot(
            points[:, 0] - world.coords_array(true_cells)[:, 0],
            points[:, 1] - world.coords_array(true_cells)[:, 1],
        )
        assert report.n_releases == len(users)
        assert report.mean_euclidean_error == pytest.approx(float(errors.mean()), rel=1e-12)
        assert 0.0 <= report.area_accuracy <= 1.0

    def test_epoch_second_rounds_on_a_wide_world_fold_every_flow(self):
        # 400 x 400 cells at rounds near 2e9: the transition codes
        # (round * base + src) * base + dst wrapped in int64, and the live
        # view froze {} where batch_recompute counts two flows.
        world = GridWorld(400, 400)
        t = 2_000_000_000
        users = np.array([1, 1, 2, 2])
        times = np.array([t, t + 1, t, t + 1])
        cells = np.array([100_000, 99_999, 5, 6])
        points = world.coords_array(cells)
        registry = LiveMetricRegistry([FlowMatrixView(world)], {0: {t, t + 1}})
        registry.ingest(0, PreparedShard.build(users, times, cells, points, true_cells=cells))
        want = batch_recompute(
            [FlowMatrixView(world)], ShardPlan.build([1, 2], 1, rng=0),
            users, times, points, cells, cells,
        )
        flows = registry.at(t + 1)["flows"]
        assert flows == want[t + 1]["flows"]
        assert flows.true_flows == flows.observed_flows == {(1, 1): 1, (6200, 6299): 1}


# ----------------------------------------------------------------------
# snapshot semantics: availability, immutability, misuse
# ----------------------------------------------------------------------


def _partial_commit(world, db, engine, shards, only):
    """A server with live views where only ``only`` shards have committed."""
    plan = _plan(db, shards)
    server = Server(world)
    server.attach_metrics(default_views(world), expected_coverage(plan, db))
    for users, times, batch in stream_shard_releases(
        engine, db, plan, only_shards=frozenset(only)
    ):
        server.ingest_shard(users, times, batch, shard=plan.shard_of(int(users[0])))
    return server, plan


class TestSnapshotSemantics:
    def test_unavailable_round_names_missing_shards(self, world, db, engine):
        server, plan = _partial_commit(world, db, engine, 4, only={0, 1})
        with pytest.raises(SnapshotUnavailableError, match=r"\[2, 3\]"):
            server.metrics_at(0)
        # Completing the run freezes everything.
        for users, times, batch in stream_shard_releases(
            engine, db, plan, only_shards=frozenset({2, 3})
        ):
            server.ingest_shard(users, times, batch, shard=plan.shard_of(int(users[0])))
        assert server.metrics.frozen_rounds == server.metrics.rounds
        server.metrics_at(0)  # no raise

    def test_round_outside_coverage_is_validation_error(self, world, db, engine):
        server, _ = _partial_commit(world, db, engine, 2, only={0, 1})
        with pytest.raises(ValidationError, match="not part of this run's coverage"):
            server.metrics_at(99)

    def test_frozen_values_are_immutable(self, world, db, engine):
        from dataclasses import FrozenInstanceError

        server, _ = _partial_commit(world, db, engine, 2, only={0, 1})
        values = server.metrics_at(HORIZON - 1)
        with pytest.raises(TypeError):
            values["monitoring"] = None
        with pytest.raises(FrozenInstanceError):
            values["monitoring"].n_releases = 0
        # Later rounds and repeated reads never move a published value.
        assert server.metrics_at(HORIZON - 1) is values
        assert server.metrics_at(0)["monitoring"].n_releases < values["monitoring"].n_releases

    def test_double_fold_rejected(self, world, db, engine):
        server, plan = _partial_commit(world, db, engine, 2, only={0})
        users, times, batch = next(
            iter(stream_shard_releases(engine, db, plan, only_shards=frozenset({0})))
        )
        with pytest.raises(DataError, match="already folded"):
            server.ingest_shard(users, times, batch, shard=0)

    def test_ingest_requires_shard_index(self, world, db, engine):
        server, plan = _partial_commit(world, db, engine, 2, only=set())
        users, times, batch = next(
            iter(stream_shard_releases(engine, db, plan, only_shards=frozenset({0})))
        )
        with pytest.raises(DataError, match="require the shard index"):
            server.ingest_shard(users, times, batch)

    def test_attach_twice_rejected(self, world, db, engine):
        server, plan = _partial_commit(world, db, engine, 2, only=set())
        with pytest.raises(ValidationError, match="already attached"):
            server.attach_metrics(default_views(world), expected_coverage(plan, db))

    def test_metrics_at_without_views_is_validation_error(self, world):
        with pytest.raises(ValidationError, match="no live metric views"):
            Server(world).metrics_at(0)

    def test_unsharded_run_folds_live_metrics(self, world, db, engine, batch_values_of):
        # No shards= or backend=: a one-shard run, so its live values are
        # the one-shard batch recompute's.
        server = run_release_rounds_batched(world, db, engine, rng=RNG, live_metrics=True)
        want = batch_values_of(1)
        last = max(want)
        assert dict(server.metrics_at(last)) == want[last]


def _take(batch, index):
    return ReleaseBatch(
        points=batch.points[index],
        exact=batch.exact[index],
        epsilons=batch.epsilons[index],
        cells=np.asarray(batch.cells)[index],
        mechanism=batch.mechanism,
    )


class TestRefusalsLeaveNoTrace:
    """A shard the live views refuse never reaches the store, trace or ledger."""

    @pytest.fixture()
    def server(self, world, db):
        plan = _plan(db, 2)
        with TraceStore(":memory:") as store:
            server = Server(world, store=store)
            server.attach_metrics(default_views(world), expected_coverage(plan, db))
            yield server

    @pytest.fixture(scope="class")
    def shard0(self, engine, db):
        return next(
            iter(stream_shard_releases(engine, db, _plan(db, 2), only_shards=frozenset({0})))
        )

    @staticmethod
    def _state(server):
        store = server.store
        summaries = store.connection.execute(
            "SELECT kind, time, cells, flows FROM round_blocks ORDER BY kind, time"
        ).fetchall()
        return (
            store.committed(),
            len(store),
            summaries,
            len(server.ledger),
            len(server.released_db),
            server.metrics.frozen_rounds,
        )

    @pytest.mark.parametrize(
        "refusal, match",
        [
            ("unexpected shard", "not in the expected coverage"),
            ("half the rounds", "coverage expects"),
            ("duplicate key", "duplicate"),
            ("misaligned", "does not match"),
            ("already folded", "already folded"),
        ],
    )
    def test_refusal_leaves_state_unchanged(self, server, shard0, refusal, match):
        users, times, batch = shard0
        shard = 0
        if refusal == "unexpected shard":
            shard = 9
        elif refusal == "half the rounds":
            half = times < HORIZON // 2
            users, times, batch = users[half], times[half], _take(batch, half)
        elif refusal == "duplicate key":
            again = np.r_[np.arange(len(users)), 0]
            users, times, batch = users[again], times[again], _take(batch, again)
        elif refusal == "misaligned":
            users = users[:-1]
        else:
            server.ingest_shard(users, times, batch, shard=0)
        before = self._state(server)
        with pytest.raises(DataError, match=match):
            server.ingest_shard(users, times, batch, shard=shard)
        assert self._state(server) == before


class TestRegistryValidation:
    def test_needs_views_and_coverage(self, world):
        with pytest.raises(ValidationError, match="at least one"):
            LiveMetricRegistry([], {0: {0}})
        with pytest.raises(ValidationError, match="coverage is empty"):
            LiveMetricRegistry(default_views(world), {})
        with pytest.raises(ValidationError, match="duplicate"):
            LiveMetricRegistry(
                [ContactRateView(name="x"), FlowMatrixView(world, name="x")],
                {0: {0}},
            )

    @pytest.mark.parametrize(
        "column, position, value",
        [
            ("users", 0, [0.5, 1.7]),
            ("times", 1, [0.9, 2.2]),
            ("true_cells", 3, [1.9, 2.0]),
            ("snapped_cells", 4, [True, 3]),
            ("snapped_cells", 4, np.array([True, False])),
        ],
    )
    def test_float_or_bool_integer_column_is_refused(self, column, position, value):
        # Truncated, these rows were users [0, 1] at times [0, 2] with true
        # cells [1, 2] and snapped cells [1, 3].  The prepared shard names
        # the snapped column by what the store keeps of it: ``cells``.
        columns = [[0, 1], [0, 2], np.zeros((2, 2)), [1, 2], [1, 3]]
        columns[position] = value
        users, times, points, true_cells, snapped_cells = columns
        name = "cells" if column == "snapped_cells" else column
        with pytest.raises(ValidationError, match=f"^{name} must be integers"):
            PreparedShard.build(users, times, snapped_cells, points, true_cells=true_cells)

    @pytest.mark.parametrize("column", ["true_cells", "snapped_cells"])
    def test_negative_cell_is_refused_naming_the_row(self, column):
        columns = {
            "users": [0, 1, 0, 1],
            "times": [0, 0, 1, 1],
            "points": np.zeros((4, 2)),
            "true_cells": [3, 3, 3, 2],
            "snapped_cells": [3, 3, 3, 2],
        }
        columns[column] = [3, 3, -1, 2]
        name = "cells" if column == "snapped_cells" else column
        with pytest.raises(DataError, match=rf"^{name} holds -1 at \(user, time\) \(0, 1\)"):
            PreparedShard.build(
                columns["users"],
                columns["times"],
                columns["snapped_cells"],
                columns["points"],
                true_cells=columns["true_cells"],
            )

    def test_contact_view_alone_refuses_a_negative_true_cell(self):
        # Nothing else in an E2-only registry reads the cell's coordinates:
        # unchecked, cell -1 was counted as an observation (5 where
        # batch_recompute has 6) and the round froze with the wrong rate.
        registry = LiveMetricRegistry([ContactRateView()], {0: {0, 1}})
        with pytest.raises(DataError, match="true_cells holds -1"):
            registry.ingest(
                0,
                PreparedShard.build(
                    [0, 1, 0, 1], [0, 0, 1, 1], [0, 3, 3, 2], np.zeros((4, 2)),
                    true_cells=[-1, 3, 3, 2],
                ),
            )
        assert registry.frozen_rounds == ()

    def test_unexpected_shard_and_round_mismatch(self, world, db, engine):
        # ingest folds rows check() already sorted, and refuses under its
        # lock what check() refuses about the shard itself.
        plan = _plan(db, 2)
        registry = LiveMetricRegistry(default_views(world), expected_coverage(plan, db))
        users, times, batch = next(
            iter(stream_shard_releases(engine, db, plan, only_shards=frozenset({0})))
        )
        snapped = world.snap_batch(batch.points)
        rows = PreparedShard.build(users, times, snapped, batch.points, true_cells=batch.cells)
        with pytest.raises(DataError, match="not in the expected coverage"):
            registry.ingest(9, rows)
        half = times < HORIZON // 2
        rows_half = PreparedShard.build(
            users[half], times[half], np.asarray(snapped)[half], batch.points[half],
            true_cells=np.asarray(batch.cells)[half],
        )
        with pytest.raises(DataError, match="coverage expects"):
            registry.ingest(0, rows_half)
        with pytest.raises(DataError, match="ground-truth cells"):
            registry.check(0, PreparedShard.build(users, times, snapped, batch.points))
        registry.check(0, rows)
        registry.ingest(0, rows)
        with pytest.raises(DataError, match="already folded"):
            registry.ingest(0, rows)

    def test_each_commit_sorts_its_shard_once(self, world, db, engine, monkeypatch):
        # ingest_shard prepares the shard once, before its durable commit,
        # and the check, the trace, the ledger and the fold all read it.
        plan = _plan(db, 2)
        server = Server(world)
        server.attach_metrics(default_views(world), expected_coverage(plan, db))
        builds = []
        build = PreparedShard.build.__func__

        def counted(cls, *columns, **named):
            builds.append(len(columns[0]))
            return build(cls, *columns, **named)

        monkeypatch.setattr(PreparedShard, "build", classmethod(counted))
        commits = 0
        for users, times, batch in stream_shard_releases(engine, db, plan):
            server.ingest_shard(users, times, batch, shard=plan.shard_of(int(users[0])))
            commits += 1
        assert commits == 2 and len(builds) == commits
        assert sum(builds) == len(db)
        assert server.metrics.frozen_rounds == server.metrics.rounds

    def test_repr_reports_progress(self, world, db, engine):
        server, _ = _partial_commit(world, db, engine, 2, only={0})
        text = repr(server.metrics)
        assert "monitoring" in text and "1/2" in text

    def test_default_views_cover_e1_e2_e11(self, world):
        views = default_views(world)
        assert [v.name for v in views] == ["monitoring", "contacts", "flows"]
        assert isinstance(views[0], MonitoringUtilityView)
        assert isinstance(views[1], ContactRateView)
        assert isinstance(views[2], FlowMatrixView)
