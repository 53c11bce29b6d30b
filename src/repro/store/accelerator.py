"""Accelerator schema for the trace store: commit-time summary maintenance.

The query surface (:mod:`repro.query`) answers windowed analytics — contact
rates, flow matrices, top-k hot cells — without a full pass over
``releases``.  What makes that possible is this module: a small set of
per-round summary tables (the LSST-style accelerator layout) whose rows are
maintained *inside the same SQLite transaction* as the shard's release rows
and ``(shard, round)`` commit marks.  Because the deltas travel in the
shard's own transaction, the summaries can never be torn relative to
``shard_commits``: a crash either keeps the whole shard (rows, marks, and
summary increments) or none of it.

Tables (created by :func:`repro.store.schema.create_schema`):

``round_cell_counts``
    ``(kind, time, cell) -> n``: per-round occupancy.  ``kind`` 0 summarises
    the stored ``cell`` column (the server-side snapped view on the pipeline
    path); ``kind`` 1 the ground-truth cells a commit supplied via
    ``true_cells=`` — the store still never persists *per-row* ground truth,
    only these aggregate head counts, which is exactly what the monitoring
    estimators consume.
``round_flows``
    ``(kind, time, src, dst) -> n``: cell-to-cell transition counts, each
    ``(t-1, t)`` step assigned to its *destination* round ``t`` (the live
    metrics convention, so cumulative prefixes line up).  Area-level flow
    matrices are derived at query time by mapping cells to areas, which is
    an integer regrouping — any tiling is served exactly from one table.
``user_summary``
    ``user -> (n_rows, min_time, max_time)``: per-user bounds, serving
    :meth:`TraceStore.users <repro.store.store.TraceStore.users>` and
    trajectory planning without a ``SELECT DISTINCT`` scan.

Every delta is a pure function of the committed rows, merged by integer
addition (``ON CONFLICT ... DO UPDATE SET n = n + excluded.n``), so the
summary state is independent of shard count, backend, committer, commit
arrival order, and kill-resume — the same argument that makes the live
metric views bit-identical across those axes.  The deltas are built once
as int64 column arrays (:func:`cell_counts`, :func:`transitions`); the
``*_rows`` functions turn them into upsert rows, and the live views
(:mod:`repro.server.live_metrics`) fold the same arrays in memory.
"""

from __future__ import annotations

import sqlite3
from typing import Iterable

import numpy as np

__all__ = [
    "ACCELERATOR_TABLES",
    "KIND_OBSERVED",
    "KIND_TRUE",
    "apply_deltas",
    "boundary_flow_rows",
    "cell_count_rows",
    "cell_counts",
    "flow_rows",
    "transitions",
    "user_summary_rows",
]

#: ``kind`` column values: 0 summarises the stored rows, 1 the ground truth.
KIND_OBSERVED = 0
KIND_TRUE = 1

ACCELERATOR_TABLES = (
    """
    CREATE TABLE IF NOT EXISTS round_cell_counts (
        kind INTEGER NOT NULL,
        time INTEGER NOT NULL,
        cell INTEGER NOT NULL,
        n    INTEGER NOT NULL,
        PRIMARY KEY (kind, time, cell)
    ) WITHOUT ROWID
    """,
    """
    CREATE TABLE IF NOT EXISTS round_flows (
        kind INTEGER NOT NULL,
        time INTEGER NOT NULL,
        src  INTEGER NOT NULL,
        dst  INTEGER NOT NULL,
        n    INTEGER NOT NULL,
        PRIMARY KEY (kind, time, src, dst)
    ) WITHOUT ROWID
    """,
    """
    CREATE TABLE IF NOT EXISTS user_summary (
        user     INTEGER NOT NULL,
        n_rows   INTEGER NOT NULL,
        min_time INTEGER NOT NULL,
        max_time INTEGER NOT NULL,
        PRIMARY KEY (user)
    ) WITHOUT ROWID
    """,
)

_UPSERT_CELL_COUNTS = (
    "INSERT INTO round_cell_counts (kind, time, cell, n) VALUES (?, ?, ?, ?) "
    "ON CONFLICT(kind, time, cell) DO UPDATE SET n = n + excluded.n"
)
_UPSERT_FLOWS = (
    "INSERT INTO round_flows (kind, time, src, dst, n) VALUES (?, ?, ?, ?, ?) "
    "ON CONFLICT(kind, time, src, dst) DO UPDATE SET n = n + excluded.n"
)
_UPSERT_USER_SUMMARY = (
    "INSERT INTO user_summary (user, n_rows, min_time, max_time) "
    "VALUES (?, ?, ?, ?) "
    "ON CONFLICT(user) DO UPDATE SET "
    "n_rows = n_rows + excluded.n_rows, "
    "min_time = MIN(min_time, excluded.min_time), "
    "max_time = MAX(max_time, excluded.max_time)"
)


def _empty_columns(n: int) -> tuple[np.ndarray, ...]:
    return tuple(np.empty(0, dtype=np.int64) for _ in range(n))


def _kind_rows(kind: int, columns: tuple[np.ndarray, ...]) -> list[tuple]:
    """``(kind, *columns)`` table rows for the SQLite upsert."""
    if len(columns[0]) == 0:
        return []
    kinds = np.full(len(columns[0]), int(kind), dtype=np.int64)
    return np.column_stack((kinds, *columns)).tolist()


def cell_counts(times: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(time, cell, n)`` int64 occupancy increments of one commit's rows.

    Sorted by ``(time, cell)``.  The columnar delta both consumers fold: the
    store upserts it into ``round_cell_counts`` and the live contact view
    merges it into per-round head counts.
    """
    if len(times) == 0:
        return _empty_columns(3)
    # Encoded int64 keys: one flat np.unique instead of the (much slower)
    # axis=0 row-wise variant — this runs inside every commit.
    base = int(cells.max()) + 1
    codes = times.astype(np.int64) * base + cells
    uniques, counts = np.unique(codes, return_counts=True)
    return uniques // base, uniques % base, counts


def transitions(
    users: np.ndarray, times: np.ndarray, cells: np.ndarray
) -> tuple[np.ndarray, ...]:
    """``(time, src, dst, n)`` int64 cell-transition increments within one commit.

    Rows are sorted user-major with times ascending, so a user's consecutive
    timesteps are adjacent; each ``(t-1, t)`` step contributes one count at
    destination round ``t``.  Only *within-commit* adjacency is counted —
    the shard streaming contract delivers each user's whole trace in one
    commit, and :func:`boundary_flow_rows` covers the stored side when a
    caller commits a user's trace piecewise.  Sorted by ``(time, src,
    dst)``; the store upserts it into ``round_flows`` and the live flow
    views regroup it to their own area tiling.
    """
    if len(users) < 2:
        return _empty_columns(4)
    order = np.lexsort((times, users))
    u, t, c = users[order], times[order], cells[order]
    step = (u[1:] == u[:-1]) & (t[1:] == t[:-1] + 1)
    if not bool(step.any()):
        return _empty_columns(4)
    dst_times = t[1:][step]
    src_cells = c[:-1][step]
    dst_cells = c[1:][step]
    base = int(max(src_cells.max(), dst_cells.max())) + 1
    codes = (dst_times.astype(np.int64) * base + src_cells) * base + dst_cells
    uniques, counts = np.unique(codes, return_counts=True)
    return uniques // (base * base), uniques // base % base, uniques % base, counts


def cell_count_rows(kind: int, times: np.ndarray, cells: np.ndarray) -> list[tuple]:
    """``(kind, time, cell, n)`` occupancy increments for one commit's rows."""
    return _kind_rows(kind, cell_counts(times, cells))


def flow_rows(
    kind: int, users: np.ndarray, times: np.ndarray, cells: np.ndarray
) -> list[tuple]:
    """``(kind, time, src, dst, n)`` transition increments within one commit."""
    return _kind_rows(kind, transitions(users, times, cells))


def user_summary_rows(users: np.ndarray, times: np.ndarray) -> list[tuple]:
    """``(user, n_rows, min_time, max_time)`` increments for one commit."""
    if len(users) == 0:
        return []
    order = np.lexsort((times, users))
    u, t = users[order], times[order]
    uniques, starts, counts = np.unique(u, return_index=True, return_counts=True)
    stops = starts + counts - 1
    return np.column_stack((uniques, counts, t[starts], t[stops])).tolist()


def boundary_flow_rows(
    connection: sqlite3.Connection,
    users: np.ndarray,
    times: np.ndarray,
    cells: np.ndarray,
    prior_users: "set[int]",
) -> list[tuple]:
    """Observed-flow increments stitching new rows to already-stored ones.

    When a commit adds rows for a user who already has stored rows (a
    piecewise, per-round commit pattern rather than the whole-trace shard
    contract), transitions between an old row and a new row exist in the
    data but not in the commit's own adjacency.  This resolves them with
    point lookups against the ``releases`` primary key: for each new row at
    ``(user, t)`` whose neighbour round is *not* part of this commit, an
    existing row at ``t - 1`` contributes a ``(stored -> new)`` step and an
    existing row at ``t + 1`` a ``(new -> stored)`` step.  Only the stored
    (``kind`` 0) side can be stitched — ground-truth cells are never
    persisted per row, which is why piecewise commits refuse ``true_cells``.
    """
    if not prior_users:
        return []
    incoming: dict[int, dict[int, int]] = {}
    for user, time, cell in zip(users.tolist(), times.tolist(), cells.tolist()):
        if user in prior_users:
            incoming.setdefault(user, {})[time] = cell
    rows: list[tuple] = []
    lookup = connection.execute
    for user, trace in incoming.items():
        for time, cell in trace.items():
            if time - 1 not in trace:
                hit = lookup(
                    "SELECT cell FROM releases WHERE user = ? AND time = ?",
                    (user, time - 1),
                ).fetchone()
                if hit is not None:
                    rows.append((KIND_OBSERVED, time, int(hit[0]), cell, 1))
            if time + 1 not in trace:
                hit = lookup(
                    "SELECT cell FROM releases WHERE user = ? AND time = ?",
                    (user, time + 1),
                ).fetchone()
                if hit is not None:
                    rows.append((KIND_OBSERVED, time + 1, cell, int(hit[0]), 1))
    return rows


def apply_deltas(
    connection: sqlite3.Connection,
    cell_counts: Iterable[tuple],
    flows: Iterable[tuple],
    summaries: Iterable[tuple],
) -> None:
    """Apply one commit's summary increments (caller owns the transaction)."""
    connection.executemany(_UPSERT_CELL_COUNTS, cell_counts)
    connection.executemany(_UPSERT_FLOWS, flows)
    connection.executemany(_UPSERT_USER_SUMMARY, summaries)
