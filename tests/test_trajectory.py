"""Unit tests for trajectories and the trace database."""

import numpy as np
import pytest

from repro.errors import DataError
from repro.mobility.trajectory import CheckIn, TraceDB, Trajectory


class TestTrajectory:
    def test_basic(self):
        traj = Trajectory(1, [3, 4, 5], start_time=10)
        assert len(traj) == 3
        assert list(traj.times) == [10, 11, 12]
        assert traj.at(11) == 4

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            Trajectory(1, [])

    def test_at_out_of_range(self):
        traj = Trajectory(1, [3, 4])
        with pytest.raises(DataError):
            traj.at(2)
        with pytest.raises(DataError):
            traj.at(-1)

    def test_window(self):
        traj = Trajectory(1, list(range(10)))
        sub = traj.window(3, 6)
        assert sub.cells == [3, 4, 5, 6]
        assert sub.start_time == 3

    def test_window_clamps(self):
        traj = Trajectory(1, [7, 8], start_time=5)
        sub = traj.window(0, 100)
        assert sub == traj

    def test_window_empty_rejected(self):
        traj = Trajectory(1, [7, 8], start_time=5)
        with pytest.raises(DataError):
            traj.window(10, 20)

    def test_checkins(self):
        traj = Trajectory(2, [9, 9], start_time=1)
        assert list(traj.checkins()) == [CheckIn(1, 2, 9), CheckIn(2, 2, 9)]

    def test_equality(self):
        assert Trajectory(1, [1, 2]) == Trajectory(1, [1, 2])
        assert Trajectory(1, [1, 2]) != Trajectory(1, [1, 2], start_time=1)


class TestTraceDBBasics:
    def test_add_and_query(self):
        db = TraceDB()
        db.record(1, 0, 5)
        db.record(2, 0, 5)
        db.record(1, 1, 6)
        assert len(db) == 3
        assert db.users() == frozenset({1, 2})
        assert db.times() == [0, 1]
        assert db.at_time(0) == {1: 5, 2: 5}
        assert db.location(1, 1) == 6
        assert db.location(1, 99) is None

    def test_overwrite_same_slot(self):
        db = TraceDB()
        db.record(1, 0, 5)
        db.record(1, 0, 7)
        assert len(db) == 1
        assert db.location(1, 0) == 7

    def test_from_trajectories(self):
        db = TraceDB.from_trajectories([Trajectory(1, [0, 1]), Trajectory(2, [1, 1])])
        assert len(db) == 4
        assert db.at_time(1) == {1: 1, 2: 1}

    def test_user_history_window(self):
        db = TraceDB.from_trajectories([Trajectory(1, list(range(10)))])
        history = db.user_history(1, start=3, end=5)
        assert [c.time for c in history] == [3, 4, 5]
        assert [c.cell for c in history] == [3, 4, 5]

    def test_cells_visited(self):
        db = TraceDB.from_trajectories([Trajectory(1, [5, 5, 6])])
        assert db.cells_visited(1) == {5, 6}

    def test_trajectory_roundtrip(self):
        traj = Trajectory(3, [4, 5, 6], start_time=2)
        db = TraceDB.from_trajectories([traj])
        assert db.trajectory_of(3) == traj

    def test_trajectory_of_gappy_history_rejected(self):
        db = TraceDB()
        db.record(1, 0, 5)
        db.record(1, 2, 6)
        with pytest.raises(DataError):
            db.trajectory_of(1)

    def test_trajectory_of_unknown_user(self):
        with pytest.raises(DataError):
            TraceDB().trajectory_of(42)

    def test_checkins_sorted(self):
        db = TraceDB()
        db.record(2, 1, 0)
        db.record(1, 0, 0)
        ordered = list(db.checkins())
        assert ordered == [CheckIn(0, 1, 0), CheckIn(1, 2, 0)]


class TestTraceDBInserts:
    """``record`` / ``record_many`` store integer check-ins or refuse."""

    @pytest.mark.parametrize(
        "columns, match",
        [
            pytest.param(([1, 2, 3], [0, 1], [5, 6, 7]), "users 3, times 2, cells 3", id="short-times"),
            pytest.param(([1, 2], [0, 1], np.array([5, 6, 7])), "users 2, times 2, cells 3", id="long-cells"),
            pytest.param(
                (np.array([1.7, 2.2]), np.array([0.9, 1.5]), np.array([5.5, 6.1])),
                "users must be integers, got dtype float64",
                id="float-arrays",
            ),
            pytest.param(
                ([1, 2], [0.5, 1.0], [5, 6]), "times must be integers, got dtype float64",
                id="float-list",
            ),
            pytest.param(
                ([1, 2], [0, 1], np.array([True, False])), "cells must be integers, got dtype bool",
                id="bool-cells",
            ),
        ],
    )
    def test_record_many_refuses_malformed_columns(self, columns, match):
        db = TraceDB()
        with pytest.raises(DataError, match=match):
            db.record_many(*columns)
        assert len(db) == 0

    @pytest.mark.parametrize(
        "row",
        [(1.9, 2, 3), (1, 2.7, 3), (1, 2, 3.2), (True, 2, 3), (1, 2, np.float64(3.0))],
    )
    def test_record_refuses_non_integers(self, row):
        db = TraceDB()
        with pytest.raises(DataError, match="must be an integer"):
            db.record(*row)
        assert len(db) == 0

    def test_integer_columns_of_any_int_dtype(self):
        db = TraceDB()
        db.record_many(np.array([2, 1], dtype=np.int32), (0, 3), np.array([4, 5], dtype=np.uint16))
        db.record(np.int64(3), np.uint8(1), 7)
        assert list(db.checkins()) == [CheckIn(3, 1, 5), CheckIn(0, 2, 4), CheckIn(1, 3, 7)]
        assert all(type(value) is int for c in db.checkins() for value in (c.time, c.user, c.cell))
        db.record_many([], [], [])
        assert len(db) == 3


class TestColocations:
    @pytest.fixture
    def db(self):
        db = TraceDB()
        # Users 1,2 share cell 5 at t=0 and t=2; user 3 joins only at t=0.
        db.record(1, 0, 5)
        db.record(2, 0, 5)
        db.record(3, 0, 5)
        db.record(1, 1, 6)
        db.record(2, 1, 7)
        db.record(1, 2, 5)
        db.record(2, 2, 5)
        db.record(3, 2, 8)
        return db

    def test_colocations_at(self, db):
        pairs = db.colocations_at(0)
        assert sorted(pairs) == [(1, 2, 5), (1, 3, 5), (2, 3, 5)]
        assert db.colocations_at(1) == []

    def test_colocation_count(self, db):
        assert db.colocation_count(1, 2) == 2
        assert db.colocation_count(1, 3) == 1
        assert db.colocation_count(2, 3) == 1
        assert db.colocation_count(1, 2, start=1) == 1

    def test_contacts_rule_of_two(self, db):
        # The paper's rule: >= 2 co-locations.
        assert db.contacts_of(1, min_count=2) == {2}
        assert db.contacts_of(1, min_count=1) == {2, 3}

    def test_contacts_window(self, db):
        assert db.contacts_of(1, min_count=2, start=1, end=2) == set()

    def test_contacts_unknown_user(self, db):
        with pytest.raises(DataError):
            db.contacts_of(99)

    def test_total_colocation_events(self, db):
        assert db.total_colocation_events() == 4
        assert db.total_colocation_events(start=1, end=2) == 1

    def test_symmetry(self, db):
        assert db.colocation_count(1, 2) == db.colocation_count(2, 1)
        assert 1 in db.contacts_of(2, min_count=2)
