"""The windowed query API over :class:`~repro.store.TraceStore`.

Every query here is answered from the accelerator layout
(:mod:`repro.store.accelerator`) — per-round int32 summary blocks and the
``releases`` primary key — in time proportional to the distinct keys in the
window, never to the stored population.  Each is bit-identical to its naive
full-scan counterpart in :mod:`repro.query.reference`:

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
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import DataError, SnapshotUnavailableError, StoreError, ValidationError
from repro.geo.grid import GridWorld
from repro.store.accelerator import KIND_OBSERVED, KIND_TRUE, window_blocks
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

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the store if this engine opened it (idempotent)."""
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
        if self._coverage is None:
            schedule = self.store.coverage()
            if schedule is None:
                return []
            self._coverage = Coverage(schedule)
        if not self._coverage.complete_through(upto):
            self._coverage.commit(self.store.committed())
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
        if code == KIND_TRUE and self.store.maintains_true_summaries() is not True:
            raise StoreError(
                f"trace store {self.store.path!r} holds no true-side "
                "accelerator summaries (its commits never passed true_cells)"
            )
        return code

    # ------------------------------------------------------------------
    # Windowed aggregates
    # ------------------------------------------------------------------
    def contact_rate(self, window: Window, kind: str = "observed") -> WindowContactRate:
        """E2 contact rate / R0 over one window, from per-round occupancy.

        One range read of the window's ``cells`` blocks — O(distinct
        ``(time, cell)`` pairs in the window), independent of the stored
        population.  Raises :class:`~repro.errors.DataError` for a window
        with no observations (both sides of the bit-check agree on that).
        """
        code = self._kind(kind)
        self._check_coverage(window.end)
        counts = window_blocks(
            self.store.connection, "cells", code, window.start, window.end
        )[:, 1]
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

        Served from the cell-level ``flows`` blocks: one range read and one
        decode, then an integer regroup of cell pairs into the requested
        area tiling — one gather per endpoint through the world's cached
        ``cell -> area`` table (:meth:`GridWorld.area_of_batch
        <repro.geo.grid.GridWorld.area_of_batch>`) and one int64 scatter-add
        into the ``n_areas²`` area-pair totals.  Any ``(block_rows,
        block_cols)`` is exact, because the cell-level counts are the finest
        grain.  The world is :attr:`world`: the manifest's, or a checked
        ``world=``.
        """
        code = self._kind(kind)
        world = self.world
        n_areas = world.n_areas(block_rows, block_cols)  # validates the tiling args
        self._check_coverage(window.end)
        flows = window_blocks(self.store.connection, "flows", code, window.start, window.end)
        # GridWorld.area_of_batch is the mapping the full scan uses; the
        # dense area-pair sum is int64, so the Counter equals it bitwise.
        src = world.area_of_batch(flows[:, 0], block_rows, block_cols)
        dst = world.area_of_batch(flows[:, 1], block_rows, block_cols)
        totals = np.zeros(n_areas * n_areas, dtype=np.int64)
        np.add.at(totals, src * n_areas + dst, flows[:, 2])
        pairs = np.flatnonzero(totals)
        return Counter(
            {
                (pair // n_areas, pair % n_areas): count
                for pair, count in zip(pairs.tolist(), totals[pairs].tolist())
            }
        )

    def top_cells(self, window: Window, k: int, kind: str = "observed") -> list[tuple[int, int]]:
        """The ``k`` busiest cells over the window as ``(cell, count)`` pairs.

        Occupancy is summed per cell over the window's ``cells`` blocks (one
        range read) into a dense int64 array indexed by cell id, sized by
        the window's largest id, so no world is needed; a negative id
        raises :class:`~repro.errors.StoreError`.  The occupied cells are
        ranked by ``(-count, cell)``: ties break deterministically on the
        lower cell id, so accelerator and full-scan rankings agree exactly,
        not just up to tie shuffling.
        """
        k = check_integer("k", k, minimum=1)
        code = self._kind(kind)
        self._check_coverage(window.end)
        records = window_blocks(self.store.connection, "cells", code, window.start, window.end)
        if not len(records):
            return []
        low = int(records[:, 0].min())
        if low < 0:
            raise StoreError(
                f"trace store {self.store.path!r} holds cell id {low} in the "
                f"round blocks of {window}"
            )
        totals = np.zeros(int(records[:, 0].max()) + 1, dtype=np.int64)
        np.add.at(totals, records[:, 0], records[:, 1])
        cells = np.flatnonzero(totals)
        ranked = cells[np.lexsort((cells, -totals[cells]))[:k]]
        return list(zip(ranked.tolist(), totals[ranked].tolist()))

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
