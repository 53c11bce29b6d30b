"""Trajectories, check-ins, and the queryable trace database.

:class:`TraceDB` is the in-memory location database both sides of the system
use: clients hold their own 14-day window (Fig. 1 "Loc. DB"), the server
accumulates released locations, and the epidemic apps query co-locations —
the primitive behind the contact rule "two persons have been in the same
location at the same time at least twice" (Sec. 3.2).
"""

from __future__ import annotations

import numbers
import threading
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.errors import DataError

__all__ = ["CheckIn", "Trajectory", "TraceDB"]

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _int_column(name: str, values) -> np.ndarray:
    """An integer column for :meth:`TraceDB.record_many` (no copy for int arrays).

    Float and bool columns raise :class:`~repro.errors.DataError` naming the
    dtype: truncating them would store check-ins nobody recorded.  So does
    a uint64 value past the int64 range, which the copy into the database's
    int64 columns would wrap; only a uint64 column pays that O(n) scan.
    """
    column = values if isinstance(values, np.ndarray) else np.asarray(values)
    if column.dtype.kind not in "iu" and column.size:
        raise DataError(f"record_many {name} must be integers, got dtype {column.dtype}")
    if column.ndim != 1:
        raise DataError(f"record_many {name} must be a flat column, got shape {column.shape}")
    if column.dtype.kind == "u" and column.size and int(column.max()) > _INT64_MAX:
        raise DataError(f"record_many {name} holds {int(column.max())}, outside the int64 range")
    return column


def _check_int(name: str, value) -> int:
    """``value`` as an ``int`` in the int64 range.

    Floats, bools and integers outside int64 raise
    :class:`~repro.errors.DataError` naming ``name``.
    """
    if type(value) is not int:  # the common case skips the slow ABC check
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise DataError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise DataError(f"{name} {value} is outside the int64 range")
    return value


def _index_rows(by_time: dict, by_user: dict, users, times, cells) -> None:
    """Write rows into the ``time -> {user: cell}`` / ``user -> {time: cell}`` indexes."""
    for user, time, cell in zip(users.tolist(), times.tolist(), cells.tolist()):
        by_time[time][user] = cell
        by_user[user][time] = cell


@dataclass(frozen=True, order=True)
class CheckIn:
    """One observation: ``user`` was in ``cell`` at time ``time``."""

    time: int
    user: int
    cell: int


class Trajectory:
    """A single user's time-ordered cell sequence.

    Parameters
    ----------
    user:
        User identifier.
    cells:
        Visited cells, one per timestep.
    start_time:
        Time of the first entry; subsequent entries are at ``start_time + i``.
    """

    def __init__(self, user: int, cells: Iterable[int], start_time: int = 0) -> None:
        self.user = int(user)
        self.cells = [int(c) for c in cells]
        if not self.cells:
            raise DataError(f"trajectory for user {user} is empty")
        self.start_time = int(start_time)

    @property
    def times(self) -> range:
        return range(self.start_time, self.start_time + len(self.cells))

    def at(self, time: int) -> int:
        """Cell occupied at ``time``; raises if outside the trajectory."""
        index = time - self.start_time
        if not 0 <= index < len(self.cells):
            raise DataError(f"user {self.user} has no location at time {time}")
        return self.cells[index]

    def window(self, start: int, end: int) -> "Trajectory":
        """Sub-trajectory with ``start <= time <= end`` (must be non-empty)."""
        lo = max(start, self.start_time)
        hi = min(end, self.start_time + len(self.cells) - 1)
        if lo > hi:
            raise DataError(f"window [{start}, {end}] misses user {self.user}'s trajectory")
        return Trajectory(
            self.user,
            self.cells[lo - self.start_time : hi - self.start_time + 1],
            start_time=lo,
        )

    def checkins(self) -> Iterator[CheckIn]:
        for offset, cell in enumerate(self.cells):
            yield CheckIn(time=self.start_time + offset, user=self.user, cell=cell)

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[int]:
        return iter(self.cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            self.user == other.user
            and self.cells == other.cells
            and self.start_time == other.start_time
        )

    def __repr__(self) -> str:
        return (
            f"Trajectory(user={self.user}, length={len(self.cells)}, "
            f"start_time={self.start_time})"
        )


class TraceDB:
    """Queryable collection of check-ins, indexed by time and by user.

    Storage is three int64 columns ``(users, times, cells)`` sorted by
    ``(user, time)``, one row per key.  A write only appends:
    :meth:`record_many` appends one owned copy of its three columns, and
    :meth:`add` / :meth:`record` append to a row buffer.  The first read
    after a write merges everything pending into the columns with one
    stable ``np.lexsort`` that keeps the last write of a repeated ``(user,
    time)``, so a later write overwrites an earlier one, inside one
    :meth:`record_many` call too.  ``len``, :meth:`users`, :meth:`times`,
    :meth:`checkins` and :meth:`to_arrays` read the columns.

    The point queries (:meth:`at_time`, :meth:`location`,
    :meth:`user_history`, :meth:`cells_visited` and the co-location
    primitives) read two dict indexes, ``time -> {user: cell}`` and ``user
    -> {time: cell}``, built from the columns on the first such query.
    From then on every write also updates them in place, so a loop that
    alternates writes and point queries costs O(1) per operation.
    :meth:`at_time` lists users in ascending order.

    One lock serialises appends and the merge, so a write that races a
    read's merge is never lost.
    """

    def __init__(self, checkins: Iterable[CheckIn] = ()) -> None:
        empty = np.empty(0, dtype=np.int64)
        empty.flags.writeable = False
        self._columns: tuple[np.ndarray, np.ndarray, np.ndarray] = (empty, empty, empty)
        self._blocks: list[tuple[np.ndarray, ...]] = []
        self._rows: list[int] = []  # flat (user, time, cell) triples since the last block
        self._by_time: "dict[int, dict[int, int]] | None" = None
        self._by_user: "dict[int, dict[int, int]] | None" = None
        self._lock = threading.Lock()
        for checkin in checkins:
            self.add(checkin)

    @classmethod
    def from_trajectories(cls, trajectories: Iterable[Trajectory]) -> "TraceDB":
        db = cls()
        for trajectory in trajectories:
            for checkin in trajectory.checkins():
                db.add(checkin)
        return db

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, checkin: CheckIn) -> None:
        """Insert one observation; re-adding the same (user, time) overwrites.

        The fields are checked as :meth:`record` checks them.
        """
        self.record(checkin.user, checkin.time, checkin.cell)

    def record(self, user: int, time: int, cell: int) -> None:
        """Insert one observation of integer ``user``, ``time`` and ``cell``.

        A float or bool value raises :class:`~repro.errors.DataError`
        instead of being truncated, and so does an integer outside int64.
        """
        user = _check_int("user", user)
        time = _check_int("time", time)
        cell = _check_int("cell", cell)
        with self._lock:
            self._rows += (user, time, cell)
            if self._by_user is not None:
                self._by_time[time][user] = cell
                self._by_user[user][time] = cell

    def record_many(self, users, times, cells) -> None:
        """Bulk :meth:`record` over parallel integer columns: one block append.

        Semantically ``for u, t, c in zip(...): self.record(u, t, c)``, so
        a key repeated inside the call keeps its last row; this is how the
        batched release paths store a whole shard.  The columns must have
        one length and an integer dtype (arrays, or sequences numpy reads
        as integers), with every value in the int64 range; otherwise
        :class:`~repro.errors.DataError` names the lengths or the column.
        An int array column is checked in O(1).  The call appends one
        int64 copy of the columns, so changing the caller's arrays later
        does not change the database; the sort into the stored columns
        waits for the next read.
        """
        columns = [
            _int_column(name, values)
            for name, values in (("users", users), ("times", times), ("cells", cells))
        ]
        if len({len(column) for column in columns}) > 1:
            raise DataError(
                "record_many columns must have equal lengths, got users "
                f"{len(columns[0])}, times {len(columns[1])}, cells {len(columns[2])}"
            )
        block = tuple(np.array(column, dtype=np.int64) for column in columns)
        with self._lock:
            self._flush_rows()
            self._blocks.append(block)
            if self._by_user is not None:
                _index_rows(self._by_time, self._by_user, *block)

    def _flush_rows(self) -> None:
        """Turn the row buffer into a block, keeping write order (lock held)."""
        if self._rows:
            self._blocks.append(tuple(np.array(self._rows, dtype=np.int64).reshape(-1, 3).T))
            self._rows = []

    def _merged(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sorted columns with every pending write merged in (lock held)."""
        self._flush_rows()
        if self._blocks:
            users, times, cells = (
                np.concatenate(parts) for parts in zip(self._columns, *self._blocks)
            )
            self._blocks = []
            # lexsort is stable, so each key's rows stay in write order and
            # the last row of each run of equal keys is the latest write.
            order = np.lexsort((times, users))
            users, times = users[order], times[order]
            last = np.ones(len(order), dtype=bool)
            last[:-1] = (users[1:] != users[:-1]) | (times[1:] != times[:-1])
            self._columns = (users[last], times[last], cells[order[last]])
            for column in self._columns:
                column.flags.writeable = False
        return self._columns

    def _snapshot(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        with self._lock:
            return self._merged()

    def _index(self) -> "tuple[dict[int, dict[int, int]], dict[int, dict[int, int]]]":
        """``(by_time, by_user)``, built from the columns on the first call."""
        if self._by_user is None:
            with self._lock:
                if self._by_user is None:
                    by_time: dict[int, dict[int, int]] = defaultdict(dict)
                    by_user: dict[int, dict[int, int]] = defaultdict(dict)
                    _index_rows(by_time, by_user, *self._merged())
                    self._by_time, self._by_user = by_time, by_user
        return self._by_time, self._by_user

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def users(self) -> frozenset[int]:
        users, _, _ = self._snapshot()
        firsts = np.ones(len(users), dtype=bool)
        firsts[1:] = users[1:] != users[:-1]
        return frozenset(users[firsts].tolist())

    def times(self) -> list[int]:
        _, times, _ = self._snapshot()
        return sorted(set(times.tolist()))

    def at_time(self, time: int) -> dict[int, int]:
        """``{user: cell}`` snapshot at ``time``, users ascending (empty dict if none)."""
        by_time, _ = self._index()
        return dict(sorted(by_time.get(time, {}).items()))

    def location(self, user: int, time: int) -> int | None:
        _, by_user = self._index()
        return by_user.get(user, {}).get(time)

    def user_history(self, user: int, start: int | None = None, end: int | None = None) -> list[CheckIn]:
        """Time-ordered check-ins of ``user`` within ``[start, end]``."""
        _, by_user = self._index()
        history = by_user.get(user)
        if not history:
            return []
        items = sorted(history.items())
        return [
            CheckIn(time=t, user=user, cell=c)
            for t, c in items
            if (start is None or t >= start) and (end is None or t <= end)
        ]

    def cells_visited(self, user: int, start: int | None = None, end: int | None = None) -> set[int]:
        return {checkin.cell for checkin in self.user_history(user, start, end)}

    # ------------------------------------------------------------------
    # Co-location primitives (contact rule of Sec. 3.2)
    # ------------------------------------------------------------------
    def colocations_at(self, time: int) -> list[tuple[int, int, int]]:
        """All pairs sharing a cell at ``time``: ``(user_a, user_b, cell)``."""
        by_time, _ = self._index()
        cell_groups: dict[int, list[int]] = defaultdict(list)
        for user, cell in by_time.get(time, {}).items():
            cell_groups[cell].append(user)
        pairs = []
        for cell, members in cell_groups.items():
            members.sort()
            for i, user_a in enumerate(members):
                for user_b in members[i + 1 :]:
                    pairs.append((user_a, user_b, cell))
        return pairs

    def colocation_count(self, user_a: int, user_b: int, start: int | None = None, end: int | None = None) -> int:
        """Number of timesteps ``user_a`` and ``user_b`` shared a cell."""
        _, by_user = self._index()
        hist_a = by_user.get(user_a, {})
        hist_b = by_user.get(user_b, {})
        if len(hist_b) < len(hist_a):
            hist_a, hist_b = hist_b, hist_a
        count = 0
        for time, cell in hist_a.items():
            if (start is None or time >= start) and (end is None or time <= end):
                if hist_b.get(time) == cell:
                    count += 1
        return count

    def contacts_of(self, user: int, min_count: int = 2, start: int | None = None, end: int | None = None) -> set[int]:
        """Users co-located with ``user`` at least ``min_count`` times.

        This is the paper's suspected-infection rule ("two persons have been
        the same location at the same time at least twice").
        """
        by_time, by_user = self._index()
        if user not in by_user:
            raise DataError(f"user {user} not in trace database")
        counts: dict[int, int] = defaultdict(int)
        for time, cell in by_user[user].items():
            if (start is not None and time < start) or (end is not None and time > end):
                continue
            for other, other_cell in by_time[time].items():
                if other != user and other_cell == cell:
                    counts[other] += 1
        return {other for other, n in counts.items() if n >= min_count}

    def total_colocation_events(self, start: int | None = None, end: int | None = None) -> int:
        """Total co-located (pair, time) events — the contact-rate numerator."""
        by_time, _ = self._index()
        total = 0
        for time in by_time:
            if (start is not None and time < start) or (end is not None and time > end):
                continue
            total += len(self.colocations_at(time))
        return total

    # ------------------------------------------------------------------
    def checkins(self) -> Iterator[CheckIn]:
        users, times, cells = self._snapshot()
        for user, time, cell in zip(users.tolist(), times.tolist(), cells.tolist()):
            yield CheckIn(time=time, user=user, cell=cell)

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(users, times, cells)`` flat int64 arrays in :meth:`checkins` order.

        The structure-of-arrays view of the whole database (sorted by user,
        then time) that the vectorized evaluation layer and the shard task
        build consume; row ``i`` of the three arrays is the ``i``-th
        check-in yielded by :meth:`checkins`.  These are the database's
        own stored columns, merged with any pending writes first, so a call
        with nothing pending costs O(1).  They are read-only: writing into
        one raises ``ValueError``, and a caller that needs to modify them
        takes a copy.  A later write does not change arrays already handed
        out; the next read merges it into new columns.
        """
        return self._snapshot()

    def trajectory_of(self, user: int) -> Trajectory:
        """Contiguous trajectory of ``user`` (requires gap-free history)."""
        history = self.user_history(user)
        if not history:
            raise DataError(f"user {user} not in trace database")
        times = [checkin.time for checkin in history]
        if times != list(range(times[0], times[0] + len(times))):
            raise DataError(f"user {user} has gaps; use user_history instead")
        return Trajectory(user, [c.cell for c in history], start_time=times[0])

    def __len__(self) -> int:
        users, _, _ = self._snapshot()
        return len(users)

    def __reduce__(self):
        # The lock does not pickle; a copy is rebuilt from the merged columns.
        return _from_columns, self._snapshot()

    def __repr__(self) -> str:
        return f"TraceDB(checkins={len(self)}, users={len(self.users())})"


def _from_columns(users, times, cells) -> TraceDB:
    """A :class:`TraceDB` holding the given columns (the pickle constructor)."""
    db = TraceDB()
    db.record_many(users, times, cells)
    return db
