"""Hypothesis property tests for the trace database's co-location algebra.

The contact rule (and hence the whole tracing pipeline) reduces to TraceDB's
co-location queries; these properties pin their consistency on random
check-in multisets.
"""

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility.trajectory import CheckIn, TraceDB

checkins = st.lists(
    st.builds(
        CheckIn,
        time=st.integers(0, 6),
        user=st.integers(0, 5),
        cell=st.integers(0, 4),
    ),
    max_size=60,
)


def build_db(entries):
    db = TraceDB()
    for checkin in entries:
        db.add(checkin)
    return db


@given(checkins)
@settings(max_examples=100, deadline=None)
def test_len_counts_distinct_user_time_slots(entries):
    db = build_db(entries)
    slots = {(c.user, c.time) for c in entries}
    assert len(db) == len(slots)


@given(checkins)
@settings(max_examples=100, deadline=None)
def test_colocation_count_symmetric(entries):
    db = build_db(entries)
    users = sorted(db.users())
    for i, a in enumerate(users):
        for b in users[i + 1 :]:
            assert db.colocation_count(a, b) == db.colocation_count(b, a)


@given(checkins)
@settings(max_examples=100, deadline=None)
def test_colocations_at_matches_counts(entries):
    db = build_db(entries)
    pair_totals = defaultdict(int)
    for time in db.times():
        for a, b, _cell in db.colocations_at(time):
            pair_totals[(a, b)] += 1
    for (a, b), total in pair_totals.items():
        assert db.colocation_count(a, b) == total


@given(checkins, st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_contacts_iff_count_reaches_threshold(entries, threshold):
    db = build_db(entries)
    for user in db.users():
        contacts = db.contacts_of(user, min_count=threshold)
        for other in db.users():
            if other == user:
                continue
            expected = db.colocation_count(user, other) >= threshold
            assert (other in contacts) == expected


@given(checkins)
@settings(max_examples=100, deadline=None)
def test_contacts_symmetric(entries):
    db = build_db(entries)
    for user in db.users():
        for other in db.contacts_of(user, min_count=2):
            assert user in db.contacts_of(other, min_count=2)


@given(checkins)
@settings(max_examples=100, deadline=None)
def test_total_colocation_events_consistent(entries):
    db = build_db(entries)
    total = sum(len(db.colocations_at(t)) for t in db.times())
    assert db.total_colocation_events() == total


@given(checkins)
@settings(max_examples=80, deadline=None)
def test_user_history_sorted_and_complete(entries):
    db = build_db(entries)
    for user in db.users():
        history = db.user_history(user)
        times = [c.time for c in history]
        assert times == sorted(times)
        assert len(times) == len(set(times))
        for checkin in history:
            assert db.location(user, checkin.time) == checkin.cell


@given(checkins, checkins)
@settings(max_examples=100, deadline=None)
def test_to_arrays_matches_checkins_order(entries, overwrites):
    # Inserts arrive out of order, and the second batch overwrites some
    # (user, time) slots through record_many.
    db = build_db(entries)
    db.record_many(
        [c.user for c in overwrites], [c.time for c in overwrites], [c.cell for c in overwrites]
    )
    users, times, cells = db.to_arrays()
    ordered = list(db.checkins())
    assert all(column.dtype.kind == "i" for column in (users, times, cells))
    assert users.tolist() == [c.user for c in ordered]
    assert times.tolist() == [c.time for c in ordered]
    assert cells.tolist() == [c.cell for c in ordered]
    latest = {(c.user, c.time): c.cell for c in list(entries) + list(overwrites)}
    assert sorted(latest) == list(zip(users.tolist(), times.tolist()))
    assert [latest[slot] for slot in sorted(latest)] == cells.tolist()
