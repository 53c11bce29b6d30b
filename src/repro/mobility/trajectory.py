"""Trajectories, check-ins, and the queryable trace database.

:class:`TraceDB` is the in-memory location database both sides of the system
use: clients hold their own 14-day window (Fig. 1 "Loc. DB"), the server
accumulates released locations, and the epidemic apps query co-locations —
the primitive behind the contact rule "two persons have been in the same
location at the same time at least twice" (Sec. 3.2).
"""

from __future__ import annotations

import numbers
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from repro.errors import DataError

__all__ = ["CheckIn", "Trajectory", "TraceDB"]


def _int_column(name: str, values) -> np.ndarray:
    """An integer column for :meth:`TraceDB.record_many` (no copy for int arrays).

    Float and bool columns raise :class:`~repro.errors.DataError` naming the
    dtype: truncating them would store check-ins nobody recorded.
    """
    column = values if isinstance(values, np.ndarray) else np.asarray(values)
    if column.dtype.kind not in "iu" and column.size:
        raise DataError(f"record_many {name} must be integers, got dtype {column.dtype}")
    if column.ndim != 1:
        raise DataError(f"record_many {name} must be a flat column, got shape {column.shape}")
    return column


def _check_int(name: str, value) -> int:
    """``value`` as an ``int``; floats and bools raise :class:`~repro.errors.DataError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DataError(f"{name} must be an integer, got {value!r}")
    return int(value)


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
    """Queryable collection of check-ins, indexed by time and by user."""

    def __init__(self, checkins: Iterable[CheckIn] = ()) -> None:
        self._by_time: dict[int, dict[int, int]] = defaultdict(dict)
        self._by_user: dict[int, dict[int, int]] = defaultdict(dict)
        self._count = 0
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
        """Insert one observation; re-adding the same (user, time) overwrites."""
        previous = self._by_user[checkin.user].get(checkin.time)
        if previous is None:
            self._count += 1
        self._by_time[checkin.time][checkin.user] = checkin.cell
        self._by_user[checkin.user][checkin.time] = checkin.cell

    def record(self, user: int, time: int, cell: int) -> None:
        """Insert one observation of integer ``user``, ``time`` and ``cell``.

        A float or bool value raises :class:`~repro.errors.DataError`
        instead of being truncated.
        """
        self.add(
            CheckIn(
                time=_check_int("time", time),
                user=_check_int("user", user),
                cell=_check_int("cell", cell),
            )
        )

    def record_many(self, users, times, cells) -> None:
        """Bulk :meth:`record` over parallel integer columns (batched-pipeline insert).

        Semantically ``for u, t, c in zip(...): self.record(u, t, c)``, but
        without per-row :class:`CheckIn` construction — this is how the
        batched release paths materialise a whole perturbed stream.  The
        columns must have one length and an integer dtype (arrays, or
        sequences numpy reads as integers); otherwise
        :class:`~repro.errors.DataError` names the lengths or the dtype.
        An int array column is checked in O(1).
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
        by_time = self._by_time
        by_user = self._by_user
        for user, time, cell in zip(*(column.tolist() for column in columns)):
            history = by_user[user]
            if time not in history:
                self._count += 1
            by_time[time][user] = cell
            history[time] = cell

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def users(self) -> frozenset[int]:
        return frozenset(self._by_user)

    def times(self) -> list[int]:
        return sorted(self._by_time)

    def at_time(self, time: int) -> dict[int, int]:
        """``{user: cell}`` snapshot at ``time`` (empty dict if none)."""
        return dict(self._by_time.get(time, {}))

    def location(self, user: int, time: int) -> int | None:
        return self._by_user.get(user, {}).get(time)

    def user_history(self, user: int, start: int | None = None, end: int | None = None) -> list[CheckIn]:
        """Time-ordered check-ins of ``user`` within ``[start, end]``."""
        history = self._by_user.get(user)
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
        cell_groups: dict[int, list[int]] = defaultdict(list)
        for user, cell in self._by_time.get(time, {}).items():
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
        hist_a = self._by_user.get(user_a, {})
        hist_b = self._by_user.get(user_b, {})
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
        if user not in self._by_user:
            raise DataError(f"user {user} not in trace database")
        counts: dict[int, int] = defaultdict(int)
        for time, cell in self._by_user[user].items():
            if (start is not None and time < start) or (end is not None and time > end):
                continue
            for other, other_cell in self._by_time[time].items():
                if other != user and other_cell == cell:
                    counts[other] += 1
        return {other for other, n in counts.items() if n >= min_count}

    def total_colocation_events(self, start: int | None = None, end: int | None = None) -> int:
        """Total co-located (pair, time) events — the contact-rate numerator."""
        total = 0
        for time in self._by_time:
            if (start is not None and time < start) or (end is not None and time > end):
                continue
            total += len(self.colocations_at(time))
        return total

    # ------------------------------------------------------------------
    def checkins(self) -> Iterator[CheckIn]:
        for user, history in sorted(self._by_user.items()):
            for time, cell in sorted(history.items()):
                yield CheckIn(time=time, user=user, cell=cell)

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(users, times, cells)`` flat int64 arrays in :meth:`checkins` order.

        The structure-of-arrays view of the whole database (sorted by user,
        then time) that the vectorized evaluation layer and the shard task
        build consume; row ``i`` of the three arrays is the ``i``-th
        check-in yielded by :meth:`checkins`.  The columns are filled with
        ``np.fromiter`` over the per-user histories and ordered by one
        ``np.lexsort``.
        """
        histories = self._by_user
        n = self._count
        users = np.repeat(
            np.fromiter(histories, dtype=np.int64, count=len(histories)),
            np.fromiter(map(len, histories.values()), dtype=np.int64, count=len(histories)),
        )
        times = np.fromiter(chain.from_iterable(histories.values()), dtype=np.int64, count=n)
        cells = np.fromiter(
            chain.from_iterable(history.values() for history in histories.values()),
            dtype=np.int64,
            count=n,
        )
        order = np.lexsort((times, users))
        return users[order], times[order], cells[order]

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
        return self._count

    def __repr__(self) -> str:
        return f"TraceDB(checkins={self._count}, users={len(self._by_user)})"
