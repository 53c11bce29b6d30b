"""One shard's commit-ready form: its rows checked and ordered once.

A shard commit feeds four consumers from the same rows: the durable store
(release rows, commit marks, round-block increments and user summaries),
the server's in-memory trace, the budget ledger, and the live metric views
(:mod:`repro.server.live_metrics`).  :class:`PreparedShard` is built once
per commit, before :meth:`Server.ingest_shard
<repro.server.pipeline.Server.ingest_shard>` takes its ingest lock, and the
same object is handed to all four.  It refuses malformed rows before
anything is written, and holds the rows in ``(user, time)`` key order — the
order the shard stream delivers them in, so that is one O(n) check — and in
canonical ``(time, user)`` order.  Everything else is derived lazily and at
most once per commit: the commit marks, both kinds' per-round ``cells`` and
``flows`` increments in the round blocks' encoding
(:mod:`repro.store.accelerator`), the user summaries, and the area-pair
codes of the flows at each tiling a view asks for.  A consumer that does not
need a derivation never pays for it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from repro.errors import DataError
from repro.store import accelerator
from repro.utils.validation import check_int_array

__all__ = ["PreparedShard", "ShardColumns"]


@dataclass(frozen=True, eq=False)
class ShardColumns:
    """One shard's row columns, all in one row order.

    ``cells`` are the cells the server stores (the snapped view on the
    pipeline path), ``true_cells`` the ground truth, and ``points`` the
    released ``(n, 2)`` coordinates.  ``true_cells``, ``exact`` and
    ``epsilons`` are ``None`` when the caller has none.
    """

    users: np.ndarray
    times: np.ndarray
    cells: np.ndarray
    points: np.ndarray
    exact: "np.ndarray | None" = None
    epsilons: "np.ndarray | None" = None
    true_cells: "np.ndarray | None" = None

    def take(self, order: np.ndarray) -> "ShardColumns":
        """The same rows, permuted by ``order``."""
        # ndarray.take gathers the (n, 2) points an order of magnitude
        # faster than fancy indexing does.
        return ShardColumns(
            *(
                None if column is None else column.take(order, axis=0)
                for column in (getattr(self, field.name) for field in fields(self))
            )
        )


class PreparedShard:
    """One shard's rows, checked once, in key and canonical order, with lazy derivations.

    Build it with :meth:`build`.  :attr:`keyed` holds the rows sorted by
    ``(user, time)``, the order the store inserts and derives from;
    :attr:`canonical` the same rows sorted by ``(time, user)``, the order
    the trace, the ledger and the live views take.  ``len()`` is the row
    count.  The other attributes are derived on first use and kept, so a
    consumer that reads one after another consumer pays nothing.
    """

    def __init__(self, keyed: ShardColumns, canonical: ShardColumns) -> None:
        self.keyed = keyed
        self.canonical = canonical
        self._cell_rows: dict[int, list[accelerator.RoundDelta]] = {}
        self._flow_rows: dict[int, list[accelerator.RoundDelta]] = {}
        self._area_flows: dict[tuple, list[tuple[int, np.ndarray, np.ndarray]]] = {}

    @classmethod
    def build(
        cls,
        users,
        times,
        cells,
        points,
        exact=None,
        epsilons=None,
        true_cells=None,
    ) -> "PreparedShard":
        """Check one shard's columns and put them in ``(user, time)`` key order.

        ``users``, ``times``, ``cells`` and ``true_cells`` must be integers:
        a float or bool column raises :class:`~repro.errors.ValidationError`
        naming it instead of being truncated.  Columns of different lengths,
        a negative cell id in either cell column, or a ``(user, time)`` key
        held by two rows raise :class:`~repro.errors.DataError` naming the
        lengths, the column and the row's ``(user, time)``, or the key.
        Rows already in key order, as a shard stream delivers them, are
        taken as they are after one O(n) check; any other order is sorted.
        The canonical order is then one stable sort by time.
        """
        users = check_int_array("users", users)
        times = check_int_array("times", times)
        cells = check_int_array("cells", cells)
        if true_cells is not None:
            true_cells = check_int_array("true_cells", true_cells)
        points = np.asarray(points, dtype=float)
        exact = None if exact is None else np.asarray(exact)
        epsilons = None if epsilons is None else np.asarray(epsilons)
        keyed = ShardColumns(users, times, cells, points, exact, epsilons, true_cells)
        shapes = {
            field.name: getattr(keyed, field.name).shape
            for field in fields(keyed)
            if getattr(keyed, field.name) is not None
        }
        n = len(users)
        if any(shape != ((n, 2) if name == "points" else (n,)) for name, shape in shapes.items()):
            described = ", ".join(f"{name} {shape}" for name, shape in shapes.items())
            raise DataError(
                f"shard columns are misaligned: {described}; every column "
                "holds one value per row"
            )
        for name, column in (("cells", cells), ("true_cells", true_cells)):
            if column is not None and n and int(column.min()) < 0:
                at = int(np.flatnonzero(column < 0)[0])
                raise DataError(
                    f"{name} holds {int(column[at])} at (user, time) "
                    f"({int(users[at])}, {int(times[at])}); cell ids are >= 0"
                )
        later = (users[1:] > users[:-1]) | ((users[1:] == users[:-1]) & (times[1:] > times[:-1]))
        if not bool(later.all()):
            keyed = keyed.take(np.lexsort((times, users)))
            users, times = keyed.users, keyed.times
            repeated = np.flatnonzero((users[1:] == users[:-1]) & (times[1:] == times[:-1]))
            if repeated.size:
                at = int(repeated[0])
                raise DataError(
                    f"shard rows hold the duplicate (user, time) key "
                    f"({int(users[at])}, {int(times[at])}); every key is held once"
                )
        # In key order each round's rows already have ascending users, so
        # a stable sort by time alone puts them in (time, user) order.  Over
        # fewer than 2**16 rounds it sorts 16-bit offsets, which numpy
        # sorts by radix, several times faster than int64 times.
        if n and int(times.max()) - int(times.min()) < 2**16:
            times = (times - times.min()).astype(np.uint16)
        return cls(keyed, keyed.take(np.argsort(times, kind="stable")))

    def __len__(self) -> int:
        return len(self.keyed.users)

    @cached_property
    def round_slices(self) -> list[tuple[int, int, int]]:
        """``(round, start, stop)`` of each round's rows in :attr:`canonical`, ascending."""
        times = self.canonical.times
        if len(times) == 0:
            return []
        starts = [0, *(np.flatnonzero(times[1:] != times[:-1]) + 1).tolist()]
        return list(zip(times[starts].tolist(), starts, starts[1:] + [len(times)]))

    @cached_property
    def marks(self) -> list[tuple[int, int]]:
        """``(round, rows)`` per distinct time, ascending: the store's commit marks."""
        return [(time, stop - start) for time, start, stop in self.round_slices]

    def _column(self, kind: int) -> np.ndarray:
        if kind == accelerator.KIND_OBSERVED:
            return self.keyed.cells
        if self.keyed.true_cells is None:
            raise DataError("the shard carries no ground-truth cells")
        return self.keyed.true_cells

    def cell_rows(self, kind: int) -> list[accelerator.RoundDelta]:
        """``kind``'s per-round ``(kind, time, (cell, n) records)`` increments.

        :func:`accelerator.cell_count_rows
        <repro.store.accelerator.cell_count_rows>` of the shard, derived on
        the first call; it raises :class:`OverflowError` for a cell outside
        the blocks' int32 range.
        """
        if kind not in self._cell_rows:
            self._cell_rows[kind] = accelerator.cell_count_rows(
                kind, self.keyed.times, self._column(kind)
            )
        return self._cell_rows[kind]

    def flow_rows(self, kind: int) -> list[accelerator.RoundDelta]:
        """``kind``'s per-round ``(kind, time, (src, dst, n) records)`` increments.

        :func:`accelerator.flow_rows <repro.store.accelerator.flow_rows>`
        over the key-ordered rows, derived on the first call.
        """
        if kind not in self._flow_rows:
            self._flow_rows[kind] = accelerator.flow_rows(
                kind, self.keyed.users, self.keyed.times, self._column(kind)
            )
        return self._flow_rows[kind]

    @cached_property
    def user_summaries(self) -> list[tuple]:
        """``(user, n_rows, min_time, max_time)`` per user, ascending."""
        return accelerator.user_summary_rows(self.keyed.users, self.keyed.times)

    def area_flows(
        self, kind: int, world, block_rows: int, block_cols: int
    ) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """``(time, area-pair codes, counts)`` per round of ``kind``'s flows at one tiling.

        The :meth:`flow_rows` records regrouped to ``world``'s
        ``block_rows x block_cols`` areas, as codes ``src_area * n_areas +
        dst_area`` (:meth:`~repro.geo.grid.GridWorld.area_of_batch`).
        Derived once per kind and tiling, so views at one tiling share it.
        """
        key = (kind, world.width, world.height, block_rows, block_cols)
        if key not in self._area_flows:
            deltas = self.flow_rows(kind)
            result = []
            if deltas:
                records = np.concatenate([records for _, _, records in deltas])
                areas = world.area_of_batch(records[:, :2].reshape(-1), block_rows, block_cols)
                codes = areas[0::2] * world.n_areas(block_rows, block_cols) + areas[1::2]
                # int64, as the matrices they are added into: np.add.at
                # takes a much slower path when the dtypes differ.
                counts = records[:, 2].astype(np.int64)
                start = 0
                for _, time, block in deltas:
                    stop = start + len(block)
                    result.append((time, codes[start:stop], counts[start:stop]))
                    start = stop
            self._area_flows[key] = result
        return self._area_flows[key]
