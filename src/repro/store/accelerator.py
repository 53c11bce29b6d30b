"""Accelerator schema for the trace store: per-round summary blocks.

The query surface (:mod:`repro.query`) answers windowed analytics — contact
rates, flow matrices, top-k hot cells — without a full pass over
``releases``.  What makes that possible is this module: per-round summary
blocks (the LSST-style accelerator layout), each written *once*, inside the
SQLite transaction of the shard commit that moves the run's coverage
frontier (:class:`~repro.store.resume.Coverage`) past its round — the
moment :class:`~repro.server.live_metrics.LiveMetricRegistry` freezes the
round and :class:`~repro.query.QueryEngine` first serves it.  Until then a
commit's increments wait in memory (:class:`ParkedDeltas`), so no reader
can see a block torn relative to ``shard_commits``: a crash either keeps
the completing commit (rows, marks and blocks) or none of it.  A store no
run has begun on owes no schedule, and each commit writes its rounds'
blocks at once.

Tables (created by :func:`repro.store.schema.create_schema`, since schema v3):

``round_blocks``
    One row per ``(kind, time)`` holding two column blocks, each a
    little-endian int32 array of records in row order:

    * ``cells`` — ``(cell, n)`` sorted by cell: the round's occupancy;
    * ``flows`` — ``(src, dst, n)`` sorted by ``(src, dst)``: cell-to-cell
      transition counts, each ``(t-1, t)`` step assigned to its
      *destination* round ``t`` (the live metrics convention, so cumulative
      prefixes line up).  Area-level flow matrices are derived at query
      time by mapping cells to areas, which is an integer regrouping — any
      tiling is served exactly from the same blocks.

    ``kind`` 0 summarises the stored ``cell`` column (the server-side
    snapped view on the pipeline path); ``kind`` 1 the ground-truth cells a
    commit supplied via ``true_cells=`` — the store still never persists
    *per-row* ground truth, only these aggregate counts, which is exactly
    what the monitoring estimators consume.  A range of rounds is one
    primary-key range read, decoded in one pass and split per round
    (:func:`read_round_blocks`); a query engine keeps what it derives from
    each round it read until the store changes.
``user_summary``
    ``user -> (n_rows, min_time, max_time)``: per-user bounds, serving
    :meth:`TraceStore.users <repro.store.store.TraceStore.users>` and
    trajectory planning without a ``SELECT DISTINCT`` scan.  Unlike the
    blocks, it is updated in every shard commit's transaction.

The writing commit reads any stored block of the rounds it writes, adds the
rounds' parked increments and its own key by key (:func:`apply_deltas`),
and writes back records that are sorted, unique and summed.  A block's
bytes are therefore a pure function of the committed rows — independent of
shard count, backend, commit arrival order, and kill-resume, the same
argument that makes the live metric views bit-identical across those axes.
The ``*_rows`` functions derive one commit's increments in the blocks' own
encoding, one int32 entry per round block.  A
:class:`~repro.store.prepared.PreparedShard` calls each of them at most
once per commit, and the store and the live views
(:mod:`repro.server.live_metrics`) both read the result.
"""

from __future__ import annotations

import math
import sqlite3
from typing import Iterable

import numpy as np

__all__ = [
    "ACCELERATOR_TABLES",
    "KIND_OBSERVED",
    "KIND_TRUE",
    "MAX_PARKED_PIECES",
    "ParkedDeltas",
    "apply_deltas",
    "boundary_flow_rows",
    "cell_count_rows",
    "flow_rows",
    "read_round_blocks",
    "user_summary_rows",
]

#: ``kind`` column values: 0 summarises the stored rows, 1 the ground truth.
KIND_OBSERVED = 0
KIND_TRUE = 1

#: int32 values per record of a ``cells`` / ``flows`` block.
CELL_WIDTH = 2
FLOW_WIDTH = 3

_BLOCK_DTYPE = np.dtype("<i4")
_INT32 = np.iinfo(np.int32)

#: Pieces one round's ``cells`` or ``flows`` column may hold parked; one
#: more folds them into a single sorted, summed piece, so parked memory is
#: bounded by the round's block size, not by the number of commits.
MAX_PARKED_PIECES = 8

#: Rounds merged per range read when blocks are written, so the merge's
#: int64 keys span a bounded group of rounds, never the whole run.
_MERGE_ROUNDS = 8

#: The largest key code :func:`_grouped` encodes; wider keys are lexsorted.
_MAX_CODE = 2**62

#: Counted codes spanning at most this many times the rows are grouped by
#: ``bincount``.  A dense shard's ``(round, cell)`` codes span about one
#: code per row, and counting them is several times faster than a sort.
_DENSE_CODES = 4

# round_blocks keeps its rowid: a flows block runs to tens of KB, and
# SQLite advises WITHOUT ROWID only for rows under ~1/20 of a page.
ACCELERATOR_TABLES = (
    """
    CREATE TABLE IF NOT EXISTS round_blocks (
        kind  INTEGER NOT NULL,
        time  INTEGER NOT NULL,
        cells BLOB    NOT NULL,
        flows BLOB    NOT NULL,
        PRIMARY KEY (kind, time)
    )
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

_UPSERT_USER_SUMMARY = (
    "INSERT INTO user_summary (user, n_rows, min_time, max_time) "
    "VALUES (?, ?, ?, ?) "
    "ON CONFLICT(user) DO UPDATE SET "
    "n_rows = n_rows + excluded.n_rows, "
    "min_time = MIN(min_time, excluded.min_time), "
    "max_time = MAX(max_time, excluded.max_time)"
)

#: One round block's increment: ``(kind, time, records)``, the records an
#: int32 ``(k, CELL_WIDTH)`` or ``(k, FLOW_WIDTH)`` array sorted by key.
RoundDelta = tuple[int, int, np.ndarray]


def _round_starts(times: np.ndarray) -> list[tuple[int, int]]:
    """``(start, stop)`` of each run of equal values in sorted ``times``."""
    starts = [0, *(np.flatnonzero(times[1:] != times[:-1]) + 1).tolist()]
    return list(zip(starts, starts[1:] + [len(times)]))


def _per_round(kind: int, times: np.ndarray, records: np.ndarray) -> list[RoundDelta]:
    """Split time-sorted ``records`` into one ``(kind, time, int32 records)`` per round.

    Raises :class:`OverflowError` naming the first value outside int32.
    """
    if len(times) == 0:
        return []
    _check_int32(kind, times, records)
    records = records.astype(_BLOCK_DTYPE)
    return [
        (kind, int(times[start]), records[start:stop])
        for start, stop in _round_starts(times)
    ]


def _in_key_order(users: np.ndarray, times: np.ndarray) -> bool:
    """Whether the rows are sorted by ``(user, time)``, in one O(n) pass."""
    later_user = users[1:] > users[:-1]
    same_user = users[1:] == users[:-1]
    return bool((later_user | (same_user & (times[1:] >= times[:-1]))).all())


def _grouped(
    keys: "tuple[np.ndarray, ...]", values: "np.ndarray | None" = None
) -> tuple[list[np.ndarray], np.ndarray]:
    """The distinct rows of the ``keys`` columns, sorted, and the sum of ``values`` per row.

    ``values`` defaults to ones, so the sums are row counts; they are int64.
    Each key row is encoded as one non-negative int64 code, every column
    offset to its minimum and mixed-radix by its span, so a flat sort
    groups the rows — or a ``bincount`` when the counted codes are dense,
    spanning at most :data:`_DENSE_CODES` times the rows.  When the spans'
    product leaves that code range, a lexsort over the columns groups them
    instead: a code never wraps.
    """
    n = len(keys[0])
    lows = [int(column.min()) for column in keys]
    spans = [int(column.max()) - low + 1 for column, low in zip(keys, lows)]
    size = math.prod(spans)
    if size > _MAX_CODE:
        order = np.lexsort(keys[::-1])
        keys = tuple(column[order] for column in keys)
        change = np.zeros(n - 1, dtype=bool)
        for column in keys:
            change |= column[1:] != column[:-1]
        starts = np.concatenate(([0], np.flatnonzero(change) + 1))
        if values is None:
            sums = np.diff(np.append(starts, n))
        else:
            sums = np.add.reduceat(values[order], starts, dtype=np.int64)
        return [column[starts] for column in keys], sums
    codes = np.zeros(n, dtype=np.int64)
    for column, low, span in zip(keys, lows, spans):
        # int64 arithmetic wraps modulo 2**64, so only the final code,
        # which is below size, has to fit.
        codes *= span
        codes += column
        codes -= low
    if values is not None:
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        starts = np.concatenate(([0], np.flatnonzero(codes[1:] != codes[:-1]) + 1))
        sums = np.add.reduceat(values[order], starts, dtype=np.int64)
        codes = codes[starts]
    elif size <= _DENSE_CODES * n:
        sums = np.bincount(codes, minlength=size)
        codes = np.flatnonzero(sums)
        sums = sums[codes]
    else:
        codes, sums = np.unique(codes, return_counts=True)
    columns = []
    for low, span in zip(reversed(lows), reversed(spans)):
        codes, digit = np.divmod(codes, span)
        columns.append(digit + low)
    return columns[::-1], sums


def cell_count_rows(kind: int, times: np.ndarray, cells: np.ndarray) -> list[RoundDelta]:
    """Per-round ``(kind, time, (cell, n) records)`` occupancy increments of one commit.

    The rows may come in any order.
    """
    if len(times) == 0:
        return []
    (time, cell), n = _grouped((times, cells))
    return _per_round(kind, time, np.column_stack((cell, n)))


def flow_rows(
    kind: int, users: np.ndarray, times: np.ndarray, cells: np.ndarray
) -> list[RoundDelta]:
    """Per-round ``(kind, time, (src, dst, n) records)`` cell-transition increments.

    In ``(user, time)`` key order a user's consecutive timesteps are
    adjacent rows, and each ``(t-1, t)`` step counts once at destination
    round ``t``; rows in any other order are sorted into it first.  Only
    *within-commit* adjacency is counted — the shard streaming contract
    delivers each user's whole trace in one commit, and
    :func:`boundary_flow_rows` covers the stored side when a caller commits
    a user's trace piecewise.
    """
    if not _in_key_order(users, times):
        order = np.lexsort((times, users))
        users, times, cells = users[order], times[order], cells[order]
    step = (users[1:] == users[:-1]) & (times[1:] - times[:-1] == 1)
    if not bool(step.any()):
        return []
    (time, src, dst), n = _grouped((times[1:][step], cells[:-1][step], cells[1:][step]))
    return _per_round(kind, time, np.column_stack((src, dst, n)))


def user_summary_rows(users: np.ndarray, times: np.ndarray) -> list[tuple]:
    """``(user, n_rows, min_time, max_time)`` increments for one commit.

    Rows in ``(user, time)`` key order are read in one pass; any other
    order is sorted into it first.
    """
    if len(users) == 0:
        return []
    if not _in_key_order(users, times):
        order = np.lexsort((times, users))
        users, times = users[order], times[order]
    starts = np.concatenate(([0], np.flatnonzero(users[1:] != users[:-1]) + 1))
    stops = np.append(starts[1:], len(users))
    return np.column_stack(
        (users[starts], stops - starts, times[starts], times[stops - 1])
    ).tolist()


def boundary_flow_rows(
    connection: sqlite3.Connection,
    users: np.ndarray,
    times: np.ndarray,
    cells: np.ndarray,
    prior_users: "set[int]",
) -> list[RoundDelta]:
    """Observed-flow increments stitching new rows to already-stored ones.

    When a commit adds rows for a user who already has stored rows (a
    piecewise, per-round commit pattern rather than the whole-trace shard
    contract), transitions between an old row and a new row exist in the
    data but not in the commit's own adjacency.  This resolves them with
    point lookups against the ``releases`` primary key: for each new row at
    ``(user, t)`` whose neighbour round is *not* part of this commit, an
    existing row at ``t - 1`` contributes a ``(stored -> new)`` step and an
    existing row at ``t + 1`` a ``(new -> stored)`` step.  The steps come
    back as per-round flow increments, merged into the stored blocks like
    any other.  Only the stored (``kind`` 0) side can be stitched —
    ground-truth cells are never persisted per row, which is why piecewise
    commits refuse ``true_cells``.
    """
    if not prior_users:
        return []
    incoming: dict[int, dict[int, int]] = {}
    for user, time, cell in zip(users.tolist(), times.tolist(), cells.tolist()):
        if user in prior_users:
            incoming.setdefault(user, {})[time] = cell
    steps: list[tuple[int, int, int]] = []
    lookup = connection.execute
    for user, trace in incoming.items():
        for time, cell in trace.items():
            if time - 1 not in trace:
                hit = lookup(
                    "SELECT cell FROM releases WHERE user = ? AND time = ?",
                    (user, time - 1),
                ).fetchone()
                if hit is not None:
                    steps.append((time, int(hit[0]), cell))
            if time + 1 not in trace:
                hit = lookup(
                    "SELECT cell FROM releases WHERE user = ? AND time = ?",
                    (user, time + 1),
                ).fetchone()
                if hit is not None:
                    steps.append((time + 1, cell, int(hit[0])))
    if not steps:
        return []
    step_times, src, dst = (np.asarray(column, dtype=np.int64) for column in zip(*steps))
    merged_times, keys, counts = _merge(
        step_times, np.column_stack((src, dst, np.ones_like(src)))
    )
    return _per_round(KIND_OBSERVED, merged_times, np.column_stack((keys, counts)))


def _decode_blocks(blobs: list[bytes], width: int) -> np.ndarray:
    """The records of several blocks as one read-only int32 ``(k, width)`` view.

    The blobs are joined and decoded once, not once per block.
    """
    return np.frombuffer(b"".join(blobs), dtype=_BLOCK_DTYPE).reshape(-1, width)


def read_round_blocks(
    connection: sqlite3.Connection, column: str, kind: int, start: int, end: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``cells`` or ``flows`` blocks of one kind over rounds ``start..end``, per round.

    One primary-key range read of ``round_blocks``.  Returns ``(times,
    sizes, records)``: the rounds whose block holds records, ascending (an
    int64 array); the number of records in each (int64); and every block's
    records, joined and decoded once, as one read-only int32 ``(k, 2)``
    ``(cell, n)`` or ``(k, 3)`` ``(src, dst, n)`` view, block after block
    in round order.  Round ``times[i]``'s records are the ``sizes[i]`` rows
    after the first ``sizes[:i].sum()``.
    """
    width = {"cells": CELL_WIDTH, "flows": FLOW_WIDTH}[column]
    rows = connection.execute(
        f"SELECT time, {column} FROM round_blocks WHERE kind = ? AND time BETWEEN ? AND ?",
        (int(kind), int(start), int(end)),
    ).fetchall()
    times = np.array([time for time, blob in rows if blob], dtype=np.int64)
    blobs = [blob for _, blob in rows if blob]
    sizes = np.array([len(blob) for blob in blobs], dtype=np.int64)
    return times, sizes // (_BLOCK_DTYPE.itemsize * width), _decode_blocks(blobs, width)


def _merge(
    times: np.ndarray, records: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(time, keys, n)`` of ``(key..., n)`` records summed per ``(time, key)``.

    Sorted by ``(time, key)``; the sums are int64.
    """
    (time, *keys), counts = _grouped((times, *records[:, :-1].T), records[:, -1])
    return time, np.column_stack(keys), counts


def _check_int32(kind: int, times: np.ndarray, values: np.ndarray) -> None:
    """Raise :class:`OverflowError` naming the first value outside int32."""
    outside = (values < _INT32.min) | (values > _INT32.max)
    if outside.any():
        at = tuple(np.argwhere(outside)[0])
        raise OverflowError(
            f"accelerator value {int(values[at])} (kind {kind}, round "
            f"{int(times[at[0]])}) is outside the int32 range of a round block"
        )


def _block(keys: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """int32 ``(k, width)`` records of summed ``keys`` and their ``counts``."""
    records = np.empty((len(counts), keys.shape[1] + 1), dtype=_BLOCK_DTYPE)
    records[:, :-1] = keys
    records[:, -1] = counts
    return records


def _merged_blocks(
    kind: int,
    width: int,
    stored: dict[int, bytes],
    deltas: list[RoundDelta],
) -> dict[int, bytes]:
    """``time -> block bytes`` of the stored blocks plus ``deltas``, summed by key."""
    if not deltas:
        return {}
    new_times = np.concatenate(
        [np.full(len(records), time, dtype=np.int64) for _, time, records in deltas]
    )
    old_rounds = [time for time in sorted({time for _, time, _ in deltas}) if stored.get(time)]
    old_blobs = [stored[time] for time in old_rounds]
    old_sizes = [len(blob) // (_BLOCK_DTYPE.itemsize * width) for blob in old_blobs]
    old_times = np.repeat(
        np.asarray(old_rounds, dtype=np.int64), np.asarray(old_sizes, dtype=np.int64)
    )
    times, keys, counts = _merge(
        np.concatenate((old_times, new_times)),
        np.concatenate(
            [_decode_blocks(old_blobs, width)] + [records for _, _, records in deltas]
        ),
    )
    _check_int32(kind, times, counts)
    blocks = _block(keys, counts)
    return {
        int(times[start]): blocks[start:stop].tobytes()
        for start, stop in _round_starts(times)
    }


def apply_deltas(
    connection: sqlite3.Connection,
    cell_counts: Iterable[RoundDelta],
    flows: Iterable[RoundDelta],
    summaries: Iterable[tuple],
) -> None:
    """Write round blocks and user summaries (caller owns the transaction).

    ``cell_counts`` / ``flows`` are per-round entries of
    :func:`cell_count_rows`, :func:`flow_rows` and
    :func:`boundary_flow_rows`, or pieces a :class:`ParkedDeltas` held
    (several may share a round).  Per kind, the touched rounds are merged
    in groups of a few rounds: each group's stored blocks are fetched with
    one range read, summed key by key with the increments, and written back
    whole.  Raises :class:`OverflowError` when a merged value leaves the
    int32 range.
    """
    cell_counts, flows = list(cell_counts), list(flows)
    for kind in sorted({kind for kind, _, _ in cell_counts + flows}):
        _apply_kind(
            connection,
            kind,
            [delta for delta in cell_counts if delta[0] == kind],
            [delta for delta in flows if delta[0] == kind],
        )
    connection.executemany(_UPSERT_USER_SUMMARY, summaries)


def _apply_kind(
    connection: sqlite3.Connection,
    kind: int,
    cell_deltas: list[RoundDelta],
    flow_deltas: list[RoundDelta],
) -> None:
    """:func:`apply_deltas` for the round blocks of one kind."""
    touched = sorted({time for _, time, _ in cell_deltas + flow_deltas})
    for start in range(0, len(touched), _MERGE_ROUNDS):
        group = touched[start : start + _MERGE_ROUNDS]
        first, last = group[0], group[-1]
        stored = {
            time: (cells, flows)
            for time, cells, flows in connection.execute(
                "SELECT time, cells, flows FROM round_blocks "
                "WHERE kind = ? AND time BETWEEN ? AND ?",
                (kind, first, last),
            )
        }
        cells = _merged_blocks(
            kind,
            CELL_WIDTH,
            {time: pair[0] for time, pair in stored.items()},
            [delta for delta in cell_deltas if first <= delta[1] <= last],
        )
        flows = _merged_blocks(
            kind,
            FLOW_WIDTH,
            {time: pair[1] for time, pair in stored.items()},
            [delta for delta in flow_deltas if first <= delta[1] <= last],
        )
        empty = (b"", b"")
        connection.executemany(
            "INSERT OR REPLACE INTO round_blocks (kind, time, cells, flows) "
            "VALUES (?, ?, ?, ?)",
            [
                (
                    kind,
                    time,
                    cells.get(time, stored.get(time, empty)[0]),
                    flows.get(time, stored.get(time, empty)[1]),
                )
                for time in group
            ],
        )


def _fold(kind: int, time: int, pieces: "tuple[np.ndarray, ...]") -> np.ndarray:
    """One sorted, summed int32 piece of a round column's parked ``pieces``."""
    records = np.concatenate(pieces)
    times, keys, counts = _merge(np.full(len(records), time, dtype=np.int64), records)
    _check_int32(kind, times, counts)
    return _block(keys, counts)


class ParkedDeltas:
    """Round-block increments held in memory until their round may be written.

    Maps ``(column, kind, time)`` — ``column`` is ``"cells"`` or
    ``"flows"`` — to its pieces: the int32 records one commit added to that
    round's block, sorted by key.  A column holds at most
    :data:`MAX_PARKED_PIECES` pieces; parking one more folds them into one.
    Instances are never changed in place: :meth:`plan` returns the state to
    adopt once the commit's transaction is durable, so a commit that fails
    leaves the parked state as it was.
    """

    def __init__(
        self, pieces: "dict[tuple[str, int, int], tuple[np.ndarray, ...]] | None" = None
    ) -> None:
        self._pieces = {} if pieces is None else pieces

    def counts(self) -> dict[tuple[str, int, int], int]:
        """The number of pieces parked per ``(column, kind, time)``."""
        return {key: len(pieces) for key, pieces in self._pieces.items()}

    def plan(
        self,
        cell_deltas: Iterable[RoundDelta],
        flow_deltas: Iterable[RoundDelta],
        writable,
    ) -> tuple[list[RoundDelta], list[RoundDelta], "ParkedDeltas"]:
        """Split the parked and the new increments into due and kept.

        ``writable(time)`` says whether a round's block is written now.
        Returns the ``cells`` and ``flows`` increments due at the writable
        rounds (every parked piece there plus the new ones, for
        :func:`apply_deltas`) and the parked state that keeps the rest.
        Raises :class:`OverflowError` when a fold leaves the int32 range.
        """
        pieces = dict(self._pieces)
        for column, deltas in (("cells", cell_deltas), ("flows", flow_deltas)):
            for kind, time, records in deltas:
                key = (column, kind, time)
                held = pieces.get(key, ()) + (records,)
                if len(held) > MAX_PARKED_PIECES and not writable(time):
                    held = (_fold(kind, time, held),)
                pieces[key] = held
        due: dict[str, list[RoundDelta]] = {"cells": [], "flows": []}
        for key in [key for key in pieces if writable(key[2])]:
            column, kind, time = key
            due[column].extend((kind, time, records) for records in pieces.pop(key))
        return due["cells"], due["flows"], ParkedDeltas(pieces)
