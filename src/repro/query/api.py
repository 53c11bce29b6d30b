"""The windowed query API over :class:`~repro.store.TraceStore`.

Every query here is answered from the accelerator layout
(:mod:`repro.store.accelerator`) — per-round int32 summary blocks and the
``releases`` primary key — in time proportional to the distinct keys in the
window the first time an engine reads its rounds, and to the rounds in it
once the engine holds them; never to the stored population.  Each is
bit-identical to its naive full-scan counterpart in
:mod:`repro.query.reference`:

* integer components (occupancy counts, flow counts, pair events) merge by
  addition, which no aggregation order can perturb;
* the only float arithmetic (contact rate, R0, epsilon accumulation) is the
  *same expression over the same integers* — or, for epsilon spend, the
  same scalar accumulation order (time-ascending per user) the server's
  :class:`~repro.core.accounting.BudgetLedger` uses.

Consistency follows the coverage-frontier rule the live metric views
freeze by (:class:`~repro.store.resume.Coverage`): a window is only
answered once every shard the run scheduled at or before its last round
has committed — anything less raises
:class:`~repro.errors.SnapshotUnavailableError` naming the missing shards,
because whole-shard transactions make a *committed* shard trustworthy but
say nothing about its absent peers.  The schedule is the one
:meth:`TraceStore.begin_run <repro.store.store.TraceStore.begin_run>`
recorded with the run; a store no run has begun on owes nothing, and its
windows answer over what is committed.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from repro.errors import DataError, SnapshotUnavailableError, StoreError, ValidationError
from repro.geo.grid import GridWorld
from repro.store.accelerator import KIND_OBSERVED, KIND_TRUE, read_round_blocks
from repro.store.resume import Coverage
from repro.store.store import TraceStore, open_store
from repro.utils.validation import check_integer, check_positive, check_probability

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.mobility.trajectory import CheckIn

__all__ = [
    "QueryEngine",
    "Window",
    "WindowContactRate",
    "sliding_windows",
    "tumbling_windows",
]

_KINDS = {"observed": KIND_OBSERVED, "true": KIND_TRUE}

#: ``top_cells`` sums per cell id in a dense array while the window's
#: largest id is below this many times its record count, and through the
#: sorted unique ids past that, so its scratch is O(records in the window).
_DENSE_IDS_PER_RECORD = 4


@dataclass(frozen=True, order=True)
class Window:
    """A closed time interval ``[start, end]`` of release rounds.

    Both endpoints are inclusive, matching the cumulative round semantics
    of the live metric views (``metrics_at(round=r)`` covers rows with
    ``time <= r``).  Flow queries count a ``(t-1, t)`` transition when its
    *destination* round ``t`` lies inside the window, so a window starting
    at ``s`` includes arrivals from round ``s - 1``.  Both endpoints are
    Python or numpy ints; a bool or a float raises
    :class:`~repro.errors.ValidationError` instead of being truncated.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        start = check_integer("window start", self.start)
        end = check_integer("window end", self.end)
        if end < start:
            raise ValidationError(f"window end {end} precedes start {start}")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)

    def __len__(self) -> int:
        return self.end - self.start + 1

    def __contains__(self, time: int) -> bool:
        return self.start <= int(time) <= self.end


def tumbling_windows(start: int, end: int, width: int) -> list[Window]:
    """Non-overlapping ``width``-round windows tiling ``[start, end]``.

    The last window is clipped at ``end`` when the span is not an exact
    multiple of ``width``.
    """
    width = check_integer("window width", width, minimum=1)
    return sliding_windows(start, end, width, step=width)


def sliding_windows(start: int, end: int, width: int, step: int = 1) -> list[Window]:
    """``width``-round windows advancing by ``step``, clipped at ``end``."""
    width, step = check_integer("window width", width), check_integer("window step", step)
    if width < 1 or step < 1:
        raise ValidationError(f"window width/step must be >= 1, got {width}/{step}")
    start, end = check_integer("window start", start), check_integer("window end", end)
    return [Window(low, min(low + width - 1, end)) for low in range(start, end + 1, step)]


@dataclass(frozen=True)
class WindowContactRate:
    """Contact-rate estimate over one window (the E2 arithmetic).

    ``contact_rate = 2 * pair_events / observations`` and
    ``r0 = p_transmit * contact_rate / gamma`` — integers plus the same two
    float expressions the live views and batch estimators use, which is why
    accelerator and full-scan values agree bitwise.
    """

    window: Window
    kind: str
    contact_rate: float
    r0: float
    pair_events: int
    observations: int


class _Segment(NamedTuple):
    """What one range read of round blocks left: rounds ``lo..hi``.

    ``times`` are the rounds of the range whose block held records,
    ascending; every other round of the range is empty.  Round
    ``times[i]`` owns rows ``bounds[i]:bounds[i + 1]`` of each of
    ``arrays``: per-record arrays (decoded ``cells`` records, or the flows'
    area-pair codes and counts), or one row per round (area-pair totals).
    """

    lo: int
    hi: int
    times: list[int]
    bounds: list[int]
    arrays: tuple[np.ndarray, ...]

    def rows(self, start: int, end: int) -> tuple[np.ndarray, ...]:
        """The rows of the rounds in ``start..end``."""
        first = self.bounds[bisect_left(self.times, start)]
        stop = self.bounds[bisect_right(self.times, end)]
        return tuple(array[first:stop] for array in self.arrays)


def _segment(lo: int, hi: int, times: np.ndarray, sizes: np.ndarray, *arrays) -> _Segment:
    """A segment whose round ``times[i]`` owns the next ``sizes[i]`` rows."""
    return _Segment(lo, hi, times.tolist(), [0, *accumulate(sizes.tolist())], arrays)


class _Rounds:
    """One column's per-round state: disjoint segments in round order."""

    def __init__(self) -> None:
        self._los: list[int] = []
        self._his: list[int] = []
        self._segments: list[_Segment] = []

    def _overlapping(self, start: int, end: int) -> list[_Segment]:
        return self._segments[bisect_left(self._his, start) : bisect_right(self._los, end)]

    def gaps(self, start: int, end: int) -> list[tuple[int, int]]:
        """The ranges of ``start..end`` no segment holds, ascending."""
        gaps, at = [], start
        for segment in self._overlapping(start, end):
            if segment.lo > at:
                gaps.append((at, segment.lo - 1))
            at = segment.hi + 1
        if at <= end:
            gaps.append((at, end))
        return gaps

    def copy(self) -> "_Rounds":
        twin = _Rounds()
        twin._los, twin._his, twin._segments = self._los[:], self._his[:], self._segments[:]
        return twin

    def add(self, segment: _Segment) -> None:
        at = bisect_left(self._los, segment.lo)
        self._los.insert(at, segment.lo)
        self._his.insert(at, segment.hi)
        self._segments.insert(at, segment)

    def rows(self, start: int, end: int) -> list[tuple[np.ndarray, ...]]:
        """Each segment's rows of the rounds in ``start..end``, non-empty ones."""
        parts = (segment.rows(start, end) for segment in self._overlapping(start, end))
        return [arrays for arrays in parts if len(arrays[0])]


class QueryEngine:
    """Windowed analytics over one trace store, accelerator-served.

    Parameters
    ----------
    store:
        A live :class:`~repro.store.TraceStore` or a path (opened, and then
        closed by :meth:`close` / the context manager).
    world:
        The run's :class:`~repro.geo.grid.GridWorld`, needed only by
        area-level flow queries.  Defaults to the geometry in the store's
        run manifest; a bare store with no manifest must pass it.  When
        the store records a manifest, a ``world`` whose width, height or
        cell size differs from it raises
        :class:`~repro.errors.ValidationError` naming both geometries.
        The check runs when the world is first used, not here, because
        the manifest may be recorded after the engine opens.
    p_transmit / gamma:
        The E2 R0 parameters applied by :meth:`contact_rate`: a
        probability in ``[0, 1]`` and a finite rate ``> 0``, validated as
        :class:`~repro.server.live_metrics.ContactRateView` validates them.

    Every windowed answer is gated by the run's recorded coverage schedule,
    loaded once (see the module docstring).  The engine keeps the frontier
    it last saw and reads ``shard_commits`` only for a window that reaches
    past it: marks are only ever added, so a complete round stays complete.

    The engine also keeps, for its whole life, what it derived from each
    round block it read: per kind, each round's decoded ``cells`` records
    (read-only int32 views of the bytes read, shared by
    :meth:`contact_rate` and :meth:`top_cells`); per kind, for one area
    tiling at a time, each round's flows as area-pair totals or as
    per-record area-pair codes and counts, whichever is smaller.  A window
    query reads only the rounds it lacks, with one range read per gap, and
    answers with integer sums over its rounds.  Everything kept is dropped
    as soon as the store changes: each windowed query first compares the
    connection's ``PRAGMA data_version`` (commits through other
    connections) and ``total_changes`` (writes through this one) with the
    stamp the state was read at.  The stamp is checked again after the
    gap reads, and a commit that landed between them drops the state and
    reads the whole window again in one range read, kept only if the stamp
    holds across it, so one answer never mixes blocks from both sides of a
    commit.  Reads made while the connection is inside a transaction
    answer the query but are not kept.  :meth:`close` drops everything.
    """

    def __init__(
        self,
        store: "TraceStore | str | os.PathLike[str]",
        world: GridWorld | None = None,
        p_transmit: float = 0.3,
        gamma: float = 0.1,
    ) -> None:
        self.p_transmit = check_probability("p_transmit", p_transmit)
        self.gamma = check_positive("gamma", gamma)
        self.store, self._owned = open_store(store)
        if self.store is None:
            raise ValidationError("QueryEngine requires a store or a store path")
        self._world = world
        self._world_from_manifest = False
        self._coverage: Coverage | None = None
        # Per-round state keyed ("cells", kind) or ("flows", kind, rows,
        # cols), read from the store as it was at _stamp.
        self._stamp: "tuple[int, int] | None" = None
        self._state: dict[tuple, _Rounds] = {}
        # Whether the store keeps true-side summaries: written by its first
        # commit and never changed (mixed commits are refused), so it is
        # read from the store only until it exists.
        self._true_summaries: "bool | None" = None

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the kept state; close the store if this engine opened it (idempotent)."""
        self._drop()
        if self._owned and self.store is not None:
            self.store.close()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def world(self) -> GridWorld:
        """The run's world, read from the manifest and checked against ``world=``.

        Until the store records a manifest, the manifest is looked up again
        on every call: a bare store answers with the given world, and once
        a run begins on it, a contradicting ``world=`` is refused.
        """
        if not self._world_from_manifest:
            manifest = self.store.manifest()
            if manifest is None:
                if self._world is None:
                    raise ValidationError(
                        "store has no run manifest; pass world= to QueryEngine "
                        "for area-level queries"
                    )
                return self._world
            recorded = GridWorld(
                manifest.world_width, manifest.world_height, manifest.cell_size
            )
            if self._world is not None and self._world != recorded:
                raise ValidationError(
                    f"world={self._world!r} contradicts the run manifest of "
                    f"trace store {self.store.path!r}, which records {recorded!r}"
                )
            self._world, self._world_from_manifest = recorded, True
        return self._world

    # ------------------------------------------------------------------
    # Coverage (the live-metrics frontier rule)
    # ------------------------------------------------------------------
    def missing_shards(self, upto: int) -> list[int]:
        """Shards still owed a commit at any round ``<= upto`` (sorted).

        Empty on a store no run has begun on.  Until a run begins, the
        schedule is looked up again on every call, so an engine opened
        before :meth:`TraceStore.begin_run
        <repro.store.store.TraceStore.begin_run>` refuses half-committed
        windows once the run has begun.
        """
        upto = check_integer("upto", upto)
        if self._coverage is None or not self._coverage.complete_through(upto):
            # What the run still owes, in one statement; a store's marks
            # are only ever added, so rounds it no longer owes stay served.
            owed = self.store.owed()
            if owed is None:
                return []
            self._coverage = Coverage(owed)
        return self._coverage.missing(upto)

    def _check_coverage(self, upto: int) -> None:
        missing = self.missing_shards(upto)
        if missing:
            raise SnapshotUnavailableError(
                f"window through round {upto} is not consistent yet: "
                f"waiting on shard commit(s) {missing}"
            )

    def _kind(self, kind: str) -> int:
        try:
            code = _KINDS[kind]
        except KeyError:
            raise ValidationError(
                f"kind must be one of {sorted(_KINDS)}, got {kind!r}"
            ) from None
        if code == KIND_TRUE:
            if self._true_summaries is None:
                self._true_summaries = self.store.maintains_true_summaries()
            if not self._true_summaries:
                raise StoreError(
                    f"trace store {self.store.path!r} holds no true-side "
                    "accelerator summaries (its commits never passed true_cells)"
                )
        return code

    # ------------------------------------------------------------------
    # Per-round state
    # ------------------------------------------------------------------
    def _drop(self) -> None:
        self._stamp, self._state = None, {}

    def _unchanged(self) -> bool:
        """Whether the store is as the kept state read it; if not, drop that state."""
        connection = self.store.connection
        (version,) = connection.execute("PRAGMA data_version").fetchone()
        stamp = (version, connection.total_changes)
        if stamp == self._stamp:
            return True
        self._drop()
        self._stamp = stamp
        return False

    def _rows(
        self, key: tuple, window: Window, read: "Callable[[int, int], _Segment]"
    ) -> list[tuple[np.ndarray, ...]]:
        """The rows of ``window``'s rounds in the state at ``key``.

        The state is dropped first if the store changed since it was read.
        Each range it lacks is then one ``read(lo, hi)``.  If the stamp
        moved while they were read, everything kept is dropped and the
        window is read again in one range read, one snapshot, which is kept
        only if the stamp holds across it.
        """
        self._unchanged()
        rounds = self._state.setdefault(key, _Rounds())
        segments = [read(lo, hi) for lo, hi in rounds.gaps(window.start, window.end)]
        keep = not segments or self._unchanged()
        if not keep:
            rounds = self._state.setdefault(key, _Rounds())
            segments = [read(window.start, window.end)]
            keep = self._unchanged()
        if not keep or self.store.connection.in_transaction:
            rounds = rounds.copy()  # answer from these reads, keep none of them
        for segment in segments:
            rounds.add(segment)
        return rounds.rows(window.start, window.end)

    def _cells(self, code: int, window: Window) -> np.ndarray:
        """The window's ``(cell, n)`` int32 records, round after round."""

        def read(lo: int, hi: int) -> _Segment:
            times, sizes, records = read_round_blocks(
                self.store.connection, "cells", code, lo, hi
            )
            return _segment(lo, hi, times, sizes, records)

        parts = [records for (records,) in self._rows(("cells", code), window, read)]
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if parts else np.empty((0, 2), dtype=np.int32)

    # ------------------------------------------------------------------
    # Windowed aggregates
    # ------------------------------------------------------------------
    def contact_rate(self, window: Window, kind: str = "observed") -> WindowContactRate:
        """E2 contact rate / R0 over one window, from per-round occupancy.

        Sums the window's ``cells`` records — O(distinct ``(time, cell)``
        pairs in the window), independent of the stored population — after
        one range read per span of rounds the engine has not read yet.
        Raises :class:`~repro.errors.DataError` for a window with no
        observations (both sides of the bit-check agree on that).
        """
        code = self._kind(kind)
        self._check_coverage(window.end)
        counts = self._cells(code, window)[:, 1].astype(np.int64)
        observations = int(counts.sum())
        if observations == 0:
            raise DataError("window contains no observations")
        pairs = int((counts * (counts - 1) // 2).sum())
        rate = 2.0 * pairs / observations
        return WindowContactRate(
            window=window,
            kind=kind,
            contact_rate=rate,
            r0=self.p_transmit * rate / self.gamma,
            pair_events=pairs,
            observations=observations,
        )

    def flow_matrix(
        self,
        window: Window,
        kind: str = "observed",
        block_rows: int = 4,
        block_cols: int = 4,
    ) -> Counter:
        """Inter-area flow counts whose destination round lies in the window.

        Served from the cell-level ``flows`` blocks.  Each span of rounds
        the engine has not read is one range read and one decode, regrouped
        into the requested area tiling: one gather per endpoint through the
        world's cached ``cell -> area`` table (:meth:`GridWorld.area_of_batch
        <repro.geo.grid.GridWorld.area_of_batch>`), kept per round as
        ``n_areas²`` area-pair totals when the read holds at least that many
        records per round, and as per-record area-pair codes and counts
        otherwise.  The answer is the int64 sum of the window's rounds.  Any
        ``(block_rows, block_cols)`` is exact, because the cell-level counts
        are the finest grain; the engine keeps one tiling per kind, and a
        query with another replaces it.  The world is :attr:`world`: the
        manifest's, or a checked ``world=``.
        """
        code = self._kind(kind)
        world = self.world
        n_areas = world.n_areas(block_rows, block_cols)  # validates the tiling args
        self._check_coverage(window.end)
        n_pairs = n_areas * n_areas
        key = ("flows", code, int(block_rows), int(block_cols))
        for other in [held for held in self._state if held[:2] == key[:2] and held != key]:
            del self._state[other]

        def read(lo: int, hi: int) -> _Segment:
            times, sizes, flows = read_round_blocks(
                self.store.connection, "flows", code, lo, hi
            )
            # GridWorld.area_of_batch is the mapping the full scan uses.
            codes = world.area_of_batch(flows[:, 0], block_rows, block_cols) * n_areas
            codes += world.area_of_batch(flows[:, 1], block_rows, block_cols)
            counts = flows[:, 2].astype(np.int64)
            if len(flows) < len(times) * n_pairs:
                return _segment(lo, hi, times, sizes, codes, counts)
            totals = np.zeros((len(times), n_pairs), dtype=np.int64)
            codes += np.repeat(np.arange(len(times)) * n_pairs, sizes)
            np.add.at(totals.reshape(-1), codes, counts)
            return _segment(lo, hi, times, np.ones(len(times), dtype=np.int64), totals)

        # int64 sums throughout, so the Counter equals the full scan bitwise.
        totals = np.zeros(n_pairs, dtype=np.int64)
        for arrays in self._rows(key, window, read):
            if len(arrays) == 1:  # one row of area-pair totals per round
                totals += arrays[0].sum(axis=0)
            else:  # area-pair codes and counts per record
                np.add.at(totals, *arrays)
        pairs = np.flatnonzero(totals)
        src, dst = np.divmod(pairs, n_areas)
        flows = Counter()
        # The pairs are distinct, so a plain dict update builds the Counter.
        dict.update(flows, zip(zip(src.tolist(), dst.tolist()), totals[pairs].tolist()))
        return flows

    def top_cells(self, window: Window, k: int, kind: str = "observed") -> list[tuple[int, int]]:
        """The ``k`` busiest cells over the window as ``(cell, count)`` pairs.

        Occupancy is summed per cell over the window's ``cells`` records
        (read as :meth:`contact_rate` reads them), so no world is needed; a
        negative id raises :class:`~repro.errors.StoreError`.  The sum goes
        through a dense int64 array indexed by cell id while the window's
        largest id is below a small multiple of its record count, and
        through the sorted unique ids otherwise, so the scratch is
        O(records in the window) however large the ids.  The occupied
        cells are ranked by ``(-count, cell)``: ties break deterministically
        on the lower cell id, so accelerator and full-scan rankings agree
        exactly, not just up to tie shuffling.
        """
        k = check_integer("k", k, minimum=1)
        code = self._kind(kind)
        self._check_coverage(window.end)
        records = self._cells(code, window)
        if not len(records):
            return []
        # Contiguous int64 columns: np.add.at's fast path.
        cells, counts = records[:, 0].astype(np.int64), records[:, 1].astype(np.int64)
        low = int(cells.min())
        if low < 0:
            raise StoreError(
                f"trace store {self.store.path!r} holds cell id {low} in the "
                f"round blocks of {window}"
            )
        high = int(cells.max())
        if high < _DENSE_IDS_PER_RECORD * len(cells):
            totals = np.zeros(high + 1, dtype=np.int64)
            np.add.at(totals, cells, counts)
            ids = np.flatnonzero(totals)
            totals = totals[ids]
        else:
            ids, slots = np.unique(cells, return_inverse=True)
            totals = np.zeros(len(ids), dtype=np.int64)
            np.add.at(totals, slots, counts)
            occupied = totals != 0
            ids, totals = ids[occupied], totals[occupied]
        ranked = np.lexsort((ids, -totals))[:k]
        return list(zip(ids[ranked].tolist(), totals[ranked].tolist()))

    def epsilon_spent(self, user: int, window: Window) -> float:
        """One user's epsilon expenditure over the window, ledger-exact.

        A clustered primary-key range read of that user's rows (times
        ascending), summed from 0.0 one float add at a time — the
        accumulation order the live server's ledger charges in, so the
        value is bit-identical to both the full-scan reference and the
        server's own in-window total.  ``user`` is a Python or numpy int.
        """
        user = check_integer("user", user)
        self._check_coverage(window.end)
        rows = self.store.connection.execute(
            "SELECT epsilon FROM releases "
            "WHERE user = ? AND time BETWEEN ? AND ? ORDER BY time",
            (user, window.start, window.end),
        ).fetchall()
        total = 0.0
        for (epsilon,) in rows:
            total += epsilon
        return total

    def trajectory(self, user: int, window: Window | None = None) -> "list[CheckIn]":
        """One user's released check-ins over the window, times ascending.

        ``releases`` is clustered on ``(user, time)``, so this is one
        contiguous primary-key range scan (the whole history when
        ``window`` is ``None``).  ``user`` is a Python or numpy int.
        """
        from repro.mobility.trajectory import CheckIn

        user = check_integer("user", user)
        if window is None:
            bounds = self.store.connection.execute(
                "SELECT min_time, max_time FROM user_summary WHERE user = ?",
                (user,),
            ).fetchone()
            if bounds is None:
                return []
            window = Window(int(bounds[0]), int(bounds[1]))
        self._check_coverage(window.end)
        rows = self.store.connection.execute(
            "SELECT time, cell FROM releases "
            "WHERE user = ? AND time BETWEEN ? AND ? ORDER BY time",
            (user, window.start, window.end),
        ).fetchall()
        return [CheckIn(time=int(time), user=user, cell=int(cell)) for time, cell in rows]

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Store-level shape at summary-table cost (no ``releases`` pass)."""
        connection = self.store.connection
        (n_users, n_rows) = connection.execute(
            "SELECT COUNT(*), COALESCE(SUM(n_rows), 0) FROM user_summary"
        ).fetchone()
        times = self.store.times()
        return {
            "path": self.store.path,
            "rows": int(n_rows),
            "users": int(n_users),
            "rounds": len(times),
            "first_round": times[0] if times else None,
            "last_round": times[-1] if times else None,
            "committed_shards": len({shard for shard, _ in self.store.committed()}),
            "true_summaries": bool(self.store.maintains_true_summaries()),
        }

    def __repr__(self) -> str:
        return f"QueryEngine(store={self.store.path!r})"
