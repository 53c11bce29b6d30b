"""``PreparedShard``: one shard's rows checked and ordered once, derived lazily.

Every commit consumer reads the same prepared shard: the store its marks,
round-block increments and user summaries, the trace and the ledger its
canonical rows, the live views its increments and area-pair flows.  The
property below pins each derivation against a reference computed here
from the row tuples alone (dicts and Counters, no ``repro`` helper), for
shards that arrive in key order, time-major or shuffled, with gapped and
single-row users, cell ids near the int32 ceiling and times near
``+-2**62`` — where an int64 code of several key columns would wrap.

The entry-point tests then pin ``Server.ingest_shard`` as prepare-then-
commit: the same rows given time-major or shuffled, through the server
or through ``PreparedShard.build`` + ``commit_shard`` + the registry by
hand, on every backend and across a resume, leave byte-identical tables,
equal ledger totals and equal ``metrics_at`` at every round.
"""

from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accounting import BudgetLedger
from repro.core.mechanisms.base import ReleaseBatch
from repro.engine import PrivacyEngine, backend_names, ensure_backend
from repro.engine.sharding import ShardPlan, stream_shard_releases
from repro.errors import DataError
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like
from repro.server.live_metrics import LiveMetricRegistry, default_views, expected_coverage
from repro.server.pipeline import Server, run_release_rounds_batched
from repro.store import PreparedShard, RunManifest, TraceStore, accelerator

KINDS = (accelerator.KIND_OBSERVED, accelerator.KIND_TRUE)

#: Time bases: a shard's users each start from one of them, so one shard
#: may span nearly the whole int64 range.
TIME_BASES = [0, -(2**62), 2**62 - 64]

#: Cell pools: small ids, ids at the int32 ceiling, or both at once.
CELL_POOLS = [(0, 15), (2**31 - 16, 2**31 - 1), (0, 2**31 - 1)]


@st.composite
def shards(draw):
    """Rows of ``(user, time, cell, true cell)`` in key, time-major or shuffled order."""
    bases = draw(st.lists(st.sampled_from(TIME_BASES), min_size=1, max_size=2, unique=True))
    low, high = draw(st.sampled_from(CELL_POOLS))
    cells = st.one_of(st.integers(low, low + 3), st.integers(high - 3, high))
    users = draw(st.lists(st.integers(0, 60), min_size=1, max_size=7, unique=True))
    rows = []
    for user in users:
        base = draw(st.sampled_from(bases))
        offsets = draw(st.sets(st.integers(0, 9), min_size=1, max_size=6))
        rows += [(user, base + offset, draw(cells), draw(cells)) for offset in offsets]
    arrival = draw(st.sampled_from(["key", "time-major", "shuffled"]))
    if arrival == "key":
        rows.sort()
    elif arrival == "time-major":
        rows.sort(key=lambda row: (row[1], row[0]))
    else:
        rows = draw(st.permutations(rows))
    return rows


def _build(rows):
    users, times, cells, true_cells = (np.array(column, dtype=np.int64) for column in zip(*rows))
    n = len(rows)
    points = np.column_stack((np.arange(n, dtype=float), -np.arange(n, dtype=float)))
    exact = np.arange(n) % 3 == 0
    epsilons = np.arange(n) / 8.0
    prepared = PreparedShard.build(
        users, times, cells, points, exact, epsilons, true_cells=true_cells
    )
    # Each row's payload, so any reordering is checked on every column.
    payload = {(u, t): (p.tolist(), e, x) for u, t, p, e, x in zip(
        users.tolist(), times.tolist(), points, exact.tolist(), epsilons.tolist()
    )}
    return prepared, payload


def _columns(columns):
    return list(zip(
        columns.users.tolist(),
        columns.times.tolist(),
        columns.cells.tolist(),
        columns.true_cells.tolist(),
    ))


def _payload(columns):
    return [
        (p.tolist(), e, x)
        for p, e, x in zip(columns.points, columns.exact.tolist(), columns.epsilons.tolist())
    ]


def _reference_cells(rows, column):
    per_round = defaultdict(Counter)
    for row in rows:
        per_round[row[1]][row[column]] += 1
    return {time: sorted(counts.items()) for time, counts in per_round.items()}


def _reference_flows(rows, column):
    traces = defaultdict(dict)
    for row in rows:
        traces[row[0]][row[1]] = row[column]
    per_round = defaultdict(Counter)
    for trace in traces.values():
        for time, cell in trace.items():
            if time - 1 in trace:
                per_round[time][(trace[time - 1], cell)] += 1
    return {
        time: [[src, dst, n] for (src, dst), n in sorted(counts.items())]
        for time, counts in per_round.items()
    }


def _deltas(deltas):
    return {time: records.tolist() for _, time, records in deltas}


@settings(max_examples=150, deadline=None)
@given(rows=shards())
def test_every_derivation_matches_its_row_tuple_reference(rows):
    prepared, payload = _build(rows)
    by_key, by_time = sorted(rows), sorted(rows, key=lambda row: (row[1], row[0]))

    assert len(prepared) == len(rows)
    assert _columns(prepared.keyed) == by_key
    assert _columns(prepared.canonical) == by_time
    assert _payload(prepared.keyed) == [payload[row[:2]] for row in by_key]
    assert _payload(prepared.canonical) == [payload[row[:2]] for row in by_time]

    rounds = Counter(row[1] for row in rows)
    assert prepared.marks == sorted(rounds.items())
    starts = np.cumsum([0] + [n for _, n in prepared.marks]).tolist()
    assert prepared.round_slices == [
        (time, start, stop) for (time, _), start, stop in zip(prepared.marks, starts, starts[1:])
    ]

    for kind, column in zip(KINDS, (2, 3)):
        cells = prepared.cell_rows(kind)
        assert [delta[0] for delta in cells] == [kind] * len(cells)
        assert [delta[1] for delta in cells] == sorted(rounds)
        assert _deltas(cells) == {
            time: [list(pair) for pair in pairs]
            for time, pairs in _reference_cells(rows, column).items()
        }
        flows = prepared.flow_rows(kind)
        assert [delta[1] for delta in flows] == sorted(delta[1] for delta in flows)
        assert _deltas(flows) == _reference_flows(rows, column)
        # The accelerator alone, fed the rows in their arrival order.
        users, times, arrived = (
            np.array([row[i] for row in rows], dtype=np.int64) for i in (0, 1, column)
        )
        assert _deltas(accelerator.flow_rows(kind, users, times, arrived)) == _deltas(flows)
        assert _deltas(accelerator.cell_count_rows(kind, times, arrived)) == _deltas(cells)

    traces = defaultdict(list)
    for row in rows:
        traces[row[0]].append(row[1])
    summaries = [
        [user, len(times), min(times), max(times)] for user, times in sorted(traces.items())
    ]
    assert prepared.user_summaries == summaries
    users, times = (np.array([row[i] for row in rows], dtype=np.int64) for i in (0, 1))
    assert accelerator.user_summary_rows(users, times) == summaries


@settings(max_examples=60, deadline=None)
@given(rows=shards(), data=st.data())
def test_a_repeated_key_is_refused_by_name(rows, data):
    user, time, *_ = data.draw(st.sampled_from(rows), label="repeated row")
    at = data.draw(st.integers(0, len(rows)), label="position")
    repeated = rows[:at] + [(user, time, 0, 0)] + rows[at:]
    with pytest.raises(DataError, match=rf"duplicate \(user, time\) key \({user}, {time}\);"):
        _build(repeated)


def test_area_flows_are_derived_once_per_tiling_and_kind():
    world = GridWorld(4, 4)
    # Users 0 and 1 move 0 -> 5 -> 15 and 3 -> 3 -> 12 over rounds 0-2.
    prepared = PreparedShard.build(
        [0, 0, 0, 1, 1, 1],
        [0, 1, 2, 0, 1, 2],
        [0, 5, 15, 3, 3, 12],
        np.zeros((6, 2)),
        true_cells=[0, 0, 0, 3, 3, 3],
    )
    observed = prepared.area_flows(accelerator.KIND_OBSERVED, world, 2, 2)
    # One code per flow record, in the records' (src, dst) cell order.
    assert [(time, codes.tolist(), counts.tolist()) for time, codes, counts in observed] == [
        (1, [0 * 4 + 0, 1 * 4 + 1], [1, 1]),
        (2, [1 * 4 + 2, 0 * 4 + 3], [1, 1]),
    ]
    assert prepared.area_flows(accelerator.KIND_OBSERVED, world, 2, 2) is observed
    true = prepared.area_flows(accelerator.KIND_TRUE, world, 2, 2)
    assert [codes.tolist() for _, codes, _ in true] == [[0, 5], [0, 5]]
    assert prepared.area_flows(accelerator.KIND_OBSERVED, world, 4, 4) is not observed


@pytest.mark.parametrize(
    "columns, match",
    [
        pytest.param(
            ([0, 1], [0, 0, 1], [1, 2], np.zeros((2, 2))),
            r"misaligned: users \(2,\), times \(3,\), cells \(2,\), points \(2, 2\);",
            id="times",
        ),
        pytest.param(
            ([0, 1], [0, 0], [1, 2], np.zeros((3, 2))),
            r"points \(3, 2\);",
            id="points",
        ),
        pytest.param(
            ([0, 1], [0, 0], [1, -2], np.zeros((2, 2))),
            r"^cells holds -2 at \(user, time\) \(1, 0\); cell ids are >= 0",
            id="negative-cell",
        ),
    ],
)
def test_malformed_columns_are_refused_naming_them(columns, match):
    with pytest.raises(DataError, match=match):
        PreparedShard.build(*columns)


# ----------------------------------------------------------------------
# entry points: Server.ingest_shard == prepare + commit + fold by hand
# ----------------------------------------------------------------------

#: The tables a commit writes, each in key order (the bytes, not just sums).
COMMIT_TABLES = (
    "SELECT * FROM releases ORDER BY user, time",
    "SELECT kind, time, cells, flows FROM round_blocks ORDER BY kind, time",
    "SELECT * FROM user_summary ORDER BY user",
    "SELECT * FROM shard_commits ORDER BY shard, round",
)


@pytest.fixture(scope="module")
def world():
    return GridWorld(6, 6)


@pytest.fixture(scope="module")
def db(world):
    return geolife_like(world, n_users=16, horizon=8, rng=3)


@pytest.fixture(scope="module")
def engine(world):
    return PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)


@pytest.fixture(scope="module", params=backend_names())
def backend(request):
    with ensure_backend(request.param) as instance:
        yield instance


def _plan(db):
    return ShardPlan.build(sorted(db.users()), 3, rng=11)


def _state(store, ledger, registry):
    """Every commit table, the ledger totals, and ``metrics_at`` at every round."""
    return (
        [store.connection.execute(sql).fetchall() for sql in COMMIT_TABLES],
        {user: ledger.spent(user) for user in ledger.users()},
        len(ledger),
        {time: dict(registry.at(time)) for time in registry.rounds},
    )


def _arrived(parts, arrival):
    """Each shard's ``(users, times, batch)`` reordered time-major or shuffled."""
    rng = np.random.default_rng(5)
    for users, times, batch in parts:
        users, times = np.asarray(users), np.asarray(times)
        if arrival == "time-major":
            order = np.lexsort((users, times))
        else:
            order = rng.permutation(len(users))
        yield users[order], times[order], ReleaseBatch(
            points=batch.points[order],
            exact=batch.exact[order],
            epsilons=batch.epsilons[order],
            cells=np.asarray(batch.cells)[order],
            mechanism=batch.mechanism,
        )


@pytest.mark.parametrize("arrival", ["time-major", "shuffled"])
def test_ingest_shard_is_prepare_then_commit(world, db, engine, backend, arrival):
    plan = _plan(db)
    schedule = expected_coverage(plan, db)
    manifest = RunManifest.for_run(engine, plan, world)
    parts = list(_arrived(stream_shard_releases(engine, db, plan, backend=backend), arrival))
    with TraceStore(":memory:") as through_server, TraceStore(":memory:") as by_hand:
        through_server.begin_run(manifest, schedule)
        server = Server(world, store=through_server)
        server.attach_metrics(default_views(world), schedule)
        by_hand.begin_run(manifest, schedule)
        registry = LiveMetricRegistry(default_views(world), schedule)
        ledger = BudgetLedger()
        for users, times, batch in parts:
            shard = plan.shard_of(int(users[0]))
            server.ingest_shard(users, times, batch, shard=shard)
            prepared = PreparedShard.build(
                users,
                times,
                world.snap_batch(batch.points),
                batch.points,
                batch.exact,
                batch.epsilons,
                true_cells=batch.cells,
            )
            registry.check(shard, prepared)
            assert by_hand.commit_shard(shard, prepared)
            rows = prepared.canonical
            ledger.charge_many(rows.users, rows.times, rows.epsilons, purpose="stream")
            registry.ingest(shard, prepared)
        got = _state(by_hand, ledger, registry)
        assert _state(through_server, server.ledger, server.metrics) == got
    # The pipeline's own run, which hands each shard over in key order.
    with TraceStore(":memory:") as piped:
        server = run_release_rounds_batched(
            world, db, engine, rng=11, shards=3, backend=backend, store=piped,
            live_metrics=True,
        )
        assert _state(piped, server.ledger, server.metrics) == got


def test_a_resumed_run_replays_through_the_prepare(world, db, engine, backend, tmp_path):
    # The replay reads the stored rows back time-major, so each replayed
    # shard is prepared through the build's sorting fallback.
    plan = _plan(db)
    schedule = expected_coverage(plan, db)
    path = tmp_path / "resumed.sqlite"
    parts = list(stream_shard_releases(engine, db, plan, only_shards=frozenset({0, 2})))
    with TraceStore(path) as store:
        store.begin_run(RunManifest.for_run(engine, plan, world), schedule)
        server = Server(world, store=store)
        for users, times, batch in parts:
            server.ingest_shard(users, times, batch, shard=plan.shard_of(int(users[0])))
    resumed = run_release_rounds_batched(
        world, db, engine, rng=11, shards=3, backend=backend, store=str(path),
        resume=True, live_metrics=True,
    )
    with TraceStore(":memory:") as whole:
        uninterrupted = run_release_rounds_batched(
            world, db, engine, rng=11, shards=3, backend=backend, store=whole,
            live_metrics=True,
        )
        want = _state(whole, uninterrupted.ledger, uninterrupted.metrics)
    with TraceStore(path) as store:
        assert _state(store, resumed.ledger, resumed.metrics) == want
