"""Out-of-core trace access: a ``TraceDB``-shaped read view over the store.

:class:`StoredTraceDB` lets population-scale runs keep the released trace on
disk: a :class:`~repro.server.pipeline.Server` opened with
``out_of_core=True`` commits shards straight into the
:class:`~repro.store.store.TraceStore` and exposes this view as its
``released_db``, so server-side memory stays bounded by the largest single
shard instead of the whole population.  The view answers the ``TraceDB``
read API (:meth:`users`, :meth:`at_time`, :meth:`user_history`,
:meth:`checkins`, ...) by translating each call into a keyed SQLite query
— per-user trajectory scans are contiguous range reads thanks to the
``(user, time)`` clustering, and a round snapshot probes that key once per
user whose ``user_summary`` span covers the round (O(users) per call; the
store has no ``(time, user)`` index since schema v5).

The view is read-only: mutation goes through the store's transactional
commit path (:meth:`TraceStore.commit_shard
<repro.store.store.TraceStore.commit_shard>`), never through this class —
that is what keeps "what's in the view" and "what a crash preserves"
the same set of rows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.errors import StoreError

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.mobility.trajectory import CheckIn, TraceDB
    from repro.store.store import TraceStore

__all__ = ["StoredTraceDB"]


class StoredTraceDB:
    """Read-only ``TraceDB`` facade over a :class:`TraceStore`'s releases."""

    def __init__(self, store: "TraceStore") -> None:
        self.store = store

    # ------------------------------------------------------------------
    # Mutation is refused: commits go through TraceStore.commit_shard.
    # ------------------------------------------------------------------
    def add(self, checkin) -> None:
        raise StoreError(
            "StoredTraceDB is a read-only view; commit rows via TraceStore.commit_shard"
        )

    def record(self, user: int, time: int, cell: int) -> None:
        self.add(None)

    def record_many(self, users, times, cells) -> None:
        self.add(None)

    # ------------------------------------------------------------------
    # TraceDB read API, served from disk
    # ------------------------------------------------------------------
    def users(self) -> frozenset[int]:
        return self.store.users()

    def times(self) -> list[int]:
        return self.store.times()

    def at_time(self, time: int) -> dict[int, int]:
        return self.store.at_time(time)

    def location(self, user: int, time: int) -> int | None:
        return self.store.location(user, time)

    def user_history(self, user: int, start: int | None = None, end: int | None = None) -> "list[CheckIn]":
        history = self.store.user_history(user)
        if start is None and end is None:
            return history
        return [
            checkin
            for checkin in history
            if (start is None or checkin.time >= start) and (end is None or checkin.time <= end)
        ]

    def cells_visited(self, user: int, start: int | None = None, end: int | None = None) -> set[int]:
        return {checkin.cell for checkin in self.user_history(user, start, end)}

    def checkins(self) -> "Iterator[CheckIn]":
        return self.store.checkins()

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(users, times, cells)`` in ``checkins()`` order — materialised.

        This pulls the whole trace into RAM (it exists for API parity and
        for evaluating modest stores); population-scale consumers should
        stream :meth:`checkins` or query per user instead.  One ordered
        ``SELECT`` of the three columns fills three int64 arrays.
        """
        rows = self.store.connection.execute(
            "SELECT user, time, cell FROM releases ORDER BY user, time"
        ).fetchall()
        users, times, cells = np.array(rows, dtype=np.int64).reshape(-1, 3).T.copy()
        return users, times, cells

    def load_tracedb(self) -> "TraceDB":
        """Materialise an in-memory :class:`TraceDB` (small stores only)."""
        return self.store.load_tracedb()

    def __len__(self) -> int:
        return len(self.store)

    def __repr__(self) -> str:
        return f"StoredTraceDB(path={self.store.path!r}, checkins={len(self)})"
