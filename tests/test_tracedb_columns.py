"""The column-backed ``TraceDB`` against a plain dict-of-dicts model.

``TraceDB`` stores ``(user, time)``-sorted int64 columns, appends writes as
blocks and rows, merges them on the first read and builds its dict indexes
on the first point query.  None of that may show: every read must agree
with ``{user: {time: cell}}`` updated by plain assignment, whatever the mix
and order of writes and reads.
"""

import copy
import pickle
import sys
import threading
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DataError
from repro.mobility.trajectory import CheckIn, TraceDB

users = st.integers(0, 4)
times = st.integers(0, 5)
cells = st.integers(0, 3)
rows = st.tuples(users, times, cells)

writes = st.one_of(
    st.tuples(st.just("add"), rows),
    st.tuples(st.just("record"), rows),
    # Small key space: keys repeat inside one call and across calls.
    st.tuples(st.just("record_many"), st.lists(rows, max_size=8)),
)
reads = st.one_of(
    st.tuples(st.just("len"), st.none()),
    st.tuples(st.just("users"), st.none()),
    st.tuples(st.just("times"), st.none()),
    st.tuples(st.just("at_time"), times),
    st.tuples(st.just("location"), st.tuples(users, times)),
    st.tuples(
        st.just("user_history"),
        st.tuples(users, st.none() | times, st.none() | times),
    ),
    st.tuples(st.just("checkins"), st.none()),
    st.tuples(st.just("to_arrays"), st.none()),
    st.tuples(
        st.just("contacts_of"),
        st.tuples(users, st.integers(1, 3), st.none() | times, st.none() | times),
    ),
)
operations = st.lists(st.one_of(writes, reads), max_size=30)


def _write(db, model, op, arg):
    if op == "add":
        user, time, cell = arg
        db.add(CheckIn(time=time, user=user, cell=cell))
    elif op == "record":
        db.record(*arg)
    else:
        db.record_many(
            np.array([u for u, _, _ in arg], dtype=np.int64),
            [t for _, t, _ in arg],
            np.array([c for _, _, c in arg], dtype=np.int32),
        )
    for user, time, cell in [arg] if op != "record_many" else arg:
        model[user][time] = cell


def _inside(time, start, end):
    return (start is None or time >= start) and (end is None or time <= end)


def _expected(model, op, arg):
    """What ``op(arg)`` returns on the dict-of-dicts model."""
    ordered = [
        CheckIn(time=t, user=u, cell=c)
        for u in sorted(model)
        for t, c in sorted(model[u].items())
    ]
    if op == "len":
        return len(ordered)
    if op == "users":
        return frozenset(u for u in model if model[u])
    if op == "times":
        return sorted({c.time for c in ordered})
    if op == "at_time":
        return [(u, model[u][arg]) for u in sorted(model) if arg in model[u]]
    if op == "location":
        user, time = arg
        return model.get(user, {}).get(time)
    if op == "user_history":
        user, start, end = arg
        return [c for c in ordered if c.user == user and _inside(c.time, start, end)]
    if op == "checkins":
        return ordered
    if op == "to_arrays":
        return [[c.user for c in ordered], [c.time for c in ordered], [c.cell for c in ordered]]
    user, min_count, start, end = arg
    if not model.get(user):
        return DataError
    counts = defaultdict(int)
    for time, cell in model[user].items():
        if _inside(time, start, end):
            for other in model:
                if other != user and model[other].get(time) == cell:
                    counts[other] += 1
    return {other for other, n in counts.items() if n >= min_count}


def _read(db, op, arg):
    if op == "len":
        return len(db)
    if op == "users":
        return db.users()
    if op == "times":
        return db.times()
    if op == "at_time":
        return list(db.at_time(arg).items())  # the list pins ascending user order
    if op == "location":
        return db.location(*arg)
    if op == "user_history":
        return db.user_history(*arg)
    if op == "checkins":
        got = list(db.checkins())
        assert all(type(v) is int for c in got for v in (c.user, c.time, c.cell))
        return got
    if op == "to_arrays":
        columns = db.to_arrays()
        assert all(column.dtype == np.int64 for column in columns)
        return [column.tolist() for column in columns]
    user, min_count, start, end = arg
    try:
        return db.contacts_of(user, min_count=min_count, start=start, end=end)
    except DataError:
        return DataError


def _run(db, model, ops):
    for op, arg in ops:
        if op in ("add", "record", "record_many"):
            _write(db, model, op, arg)
        else:
            assert _read(db, op, arg) == _expected(model, op, arg), (op, arg)


@given(operations, operations)
@settings(max_examples=200, deadline=None)
def test_every_read_agrees_with_the_dict_model(before, after):
    db, model = TraceDB(), defaultdict(dict)
    _run(db, model, before)
    # A point query builds the dict indexes; every write after it must
    # keep them current while the columns catch up on the next read.
    assert db.location(0, 0) == model.get(0, {}).get(0)
    _run(db, model, after)
    for op in ("len", "users", "times", "checkins", "to_arrays"):
        assert _read(db, op, None) == _expected(model, op, None), op
    for time in range(6):
        assert _read(db, "at_time", time) == _expected(model, "at_time", time)


class TestOwnership:
    """The database never shares a writable array with its callers."""

    def test_changing_record_many_inputs_later_changes_nothing(self):
        users = np.array([2, 1, 1], dtype=np.int64)
        times = np.array([0, 0, 1], dtype=np.int64)
        cells = np.array([5, 6, 7], dtype=np.int64)
        db = TraceDB()
        db.record_many(users, times, cells)
        users[:] = 9
        times[0] = 4
        cells[:] = 0
        assert list(db.checkins()) == [CheckIn(0, 1, 6), CheckIn(1, 1, 7), CheckIn(0, 2, 5)]
        # Also once the block is merged and the indexes exist.
        assert db.location(1, 0) == 6
        db.record_many(users, times, cells)
        users[:], cells[:] = 3, 3
        assert db.at_time(4) == {9: 0}
        assert db.location(3, 0) is None
        assert len(db) == 6
        assert db.to_arrays()[2].tolist() == [6, 7, 5, 0, 0, 0]

    def test_to_arrays_columns_are_read_only(self):
        db = TraceDB()
        db.record_many([1, 2], [0, 0], [5, 6])
        for column in db.to_arrays():
            with pytest.raises(ValueError):
                column[0] = 99
        assert db.to_arrays()[2].tolist() == [5, 6]
        assert db.location(1, 0) == 5

    def test_arrays_handed_out_do_not_follow_later_writes(self):
        db = TraceDB()
        db.record_many([1, 2], [0, 0], [5, 6])
        before = db.to_arrays()
        db.record(1, 0, 7)
        db.record(0, 3, 1)
        assert [column.tolist() for column in before] == [[1, 2], [0, 0], [5, 6]]
        assert [column.tolist() for column in db.to_arrays()] == [[0, 1, 2], [3, 0, 0], [1, 7, 6]]


    @pytest.mark.parametrize("copy_of", [copy.deepcopy, lambda db: pickle.loads(pickle.dumps(db))])
    def test_copies_are_equal_and_independent(self, copy_of):
        db = TraceDB()
        db.record_many([2, 1], [0, 3], [5, 6])
        db.record(1, 3, 7)
        db.location(1, 3)
        copied = copy_of(db)
        copied.record(4, 4, 4)
        assert list(copied.checkins()) == [CheckIn(3, 1, 7), CheckIn(0, 2, 5), CheckIn(4, 4, 4)]
        assert list(db.checkins()) == [CheckIn(3, 1, 7), CheckIn(0, 2, 5)]
        assert db.location(4, 4) is None and copied.location(4, 4) == 4


class TestInt64Boundary:
    """A value an int64 column cannot hold is refused at the call."""

    @pytest.mark.parametrize(
        "checkin",
        [CheckIn(time=1.5, user=0, cell=2), CheckIn(time=True, user=0, cell=2),
         CheckIn(time=1, user=0, cell=np.float64(2.0))],
    )
    def test_add_checks_fields_like_record(self, checkin):
        db = TraceDB()
        with pytest.raises(DataError, match="must be an integer"):
            db.add(checkin)
        assert len(db) == 0

    @pytest.mark.parametrize(
        "row, name",
        [((2**70, 0, 1), "user"), ((0, 2**63, 1), "time"), ((0, 0, -(2**63) - 1), "cell")],
    )
    def test_record_refuses_integers_outside_int64(self, row, name):
        db = TraceDB()
        with pytest.raises(DataError, match=f"^{name} .* outside the int64 range"):
            db.record(*row)
        with pytest.raises(DataError, match=f"^{name} "):
            db.add(CheckIn(time=row[1], user=row[0], cell=row[2]))
        assert len(db) == 0

    @pytest.mark.parametrize(
        "columns, match",
        [
            pytest.param(
                (np.array([2**63], dtype=np.uint64), [0], [1]),
                "users holds 9223372036854775808, outside the int64 range",
                id="uint64-array",
            ),
            pytest.param(
                ([0], [2**63], [1]), "times holds 9223372036854775808", id="list-read-as-uint64"
            ),
            pytest.param(([0], [0], [-(2**63) - 1]), "cells must be integers", id="below-int64"),
            pytest.param(([2**64], [0], [1]), "users must be integers", id="past-uint64"),
        ],
    )
    def test_record_many_refuses_values_outside_int64(self, columns, match):
        db = TraceDB()
        with pytest.raises(DataError, match=match):
            db.record_many(*columns)
        assert len(db) == 0

    def test_int64_extremes_and_negatives_are_kept_exactly(self):
        db = TraceDB()
        db.record(2**63 - 1, -(2**63), -3)
        db.record_many(np.array([2**63 - 1], dtype=np.uint64), [5], [-1])
        db.add(CheckIn(time=-2, user=-1, cell=0))
        assert list(db.checkins()) == [
            CheckIn(-2, -1, 0),
            CheckIn(-(2**63), 2**63 - 1, -3),
            CheckIn(5, 2**63 - 1, -1),
        ]
        assert db.times() == [-(2**63), -2, 5]


def test_appends_racing_merges_are_never_lost():
    """Writers append one-row blocks on several threads while readers merge."""
    db = TraceDB()
    writers, blocks = 3, 3000
    failures = []

    def write(writer):
        try:
            for block in range(blocks):
                user = np.arange(writer * blocks + block, writer * blocks + block + 1)
                db.record_many(user, user % 5, user % 7)
        except Exception as exc:  # reported below: a thread's exception is otherwise lost
            failures.append(exc)

    stop = threading.Event()

    def read():
        try:
            while not stop.is_set():
                len(db)
        except Exception as exc:
            failures.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        readers = [threading.Thread(target=read) for _ in range(2)]
        writing = [threading.Thread(target=write, args=(w,)) for w in range(writers)]
        for thread in readers + writing:
            thread.start()
        for thread in writing:
            thread.join(timeout=60)
        stop.set()
        for thread in readers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in readers + writing)
    assert failures == []
    total = writers * blocks
    assert len(db) == total
    users, times, cells = db.to_arrays()
    assert users.tolist() == list(range(total))
    assert np.array_equal(times, users % 5) and np.array_equal(cells, users % 7)
    assert sum(len(db.at_time(time)) for time in range(5)) == total
