"""The grid world: a discrete universe of locations on a map.

The paper models "all possible locations" as cells of a regular grid (the
dots of Fig. 2 and Fig. 4).  :class:`GridWorld` owns the bijection between
integer cell identifiers and continuous planar coordinates, adjacency on the
map, and the coarse-area partition used by the Ga/Gb policy graphs.

Conventions
-----------
* Cells are identified by ``cell_id = row * width + col`` with ``row`` growing
  northwards and ``col`` eastwards, matching the "(North)/(East)" axes in the
  paper's figures.
* The continuous coordinate of a cell is its centre:
  ``((col + 0.5) * cell_size, (row + 0.5) * cell_size)``.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator

import numpy as np

from repro.errors import ValidationError
from repro.utils.validation import check_int_array, check_integer, check_positive

__all__ = ["GridWorld"]


@functools.lru_cache(maxsize=16)
def _area_table(width: int, height: int, block_rows: int, block_cols: int) -> np.ndarray:
    """Read-only int64 ``cell -> area`` table of one world shape and tiling.

    Cached per ``(width, height, block_rows, block_cols)`` at module level,
    not on a :class:`GridWorld`: worlds are pickled to workers and their
    ``width`` / ``height`` are public attributes.
    """
    rows, cols = np.divmod(np.arange(width * height, dtype=np.int64), width)
    blocks_per_row = -(-width // block_cols)  # ceil division
    table = (rows // block_rows) * blocks_per_row + (cols // block_cols)
    table.flags.writeable = False
    return table


class GridWorld:
    """A ``width x height`` grid of locations with continuous coordinates.

    Parameters
    ----------
    width, height:
        Grid dimensions in cells; both must be >= 1.
    cell_size:
        Side length of a cell in map units (e.g. kilometres).  Euclidean
        utility numbers scale linearly with this.
    """

    def __init__(self, width: int, height: int, cell_size: float = 1.0) -> None:
        self.width = check_integer("width", width, minimum=1)
        self.height = check_integer("height", height, minimum=1)
        self.cell_size = check_positive("cell_size", cell_size)

    # ------------------------------------------------------------------
    # Identity / container protocol
    # ------------------------------------------------------------------
    @property
    def n_cells(self) -> int:
        """Total number of cells (locations) in the world."""
        return self.width * self.height

    def __len__(self) -> int:
        return self.n_cells

    def __contains__(self, cell: int) -> bool:
        return isinstance(cell, (int, np.integer)) and 0 <= int(cell) < self.n_cells

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n_cells))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridWorld):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.cell_size == other.cell_size
        )

    def __hash__(self) -> int:
        return hash((self.width, self.height, self.cell_size))

    def __repr__(self) -> str:
        return f"GridWorld(width={self.width}, height={self.height}, cell_size={self.cell_size})"

    # ------------------------------------------------------------------
    # Cell id <-> (row, col) <-> coordinates
    # ------------------------------------------------------------------
    def check_cell(self, cell: int) -> int:
        """Validate a cell id, returning it as a plain ``int``."""
        if cell not in self:
            raise ValidationError(f"cell {cell!r} outside grid with {self.n_cells} cells")
        return int(cell)

    def cell_of(self, row: int, col: int) -> int:
        """Cell id of grid position ``(row, col)``."""
        if not (0 <= row < self.height and 0 <= col < self.width):
            raise ValidationError(f"(row={row}, col={col}) outside {self.height}x{self.width} grid")
        return row * self.width + col

    def rowcol(self, cell: int) -> tuple[int, int]:
        """Grid position ``(row, col)`` of a cell id."""
        cell = self.check_cell(cell)
        return divmod(cell, self.width)

    def coords(self, cell: int) -> tuple[float, float]:
        """Continuous centre coordinate ``(x, y)`` of a cell."""
        row, col = self.rowcol(cell)
        return ((col + 0.5) * self.cell_size, (row + 0.5) * self.cell_size)

    def cells_array(self, cells, context: str = "cells_array") -> np.ndarray:
        """Validate an array-like of cell ids, returning a flat int array.

        A float or bool dtype raises :class:`~repro.errors.ValidationError`
        (:func:`~repro.utils.validation.check_int_array`) instead of being
        truncated to cell ids.
        """
        arr = check_int_array(f"cells in {context}", cells)
        if arr.size and (arr.min() < 0 or arr.max() >= self.n_cells):
            raise ValidationError(f"cell id out of range in {context}")
        return arr

    def coords_array(self, cells=None) -> np.ndarray:
        """``(n, 2)`` array of centre coordinates for ``cells`` (default: all)."""
        if cells is None:
            cells = np.arange(self.n_cells)
        cells = self.cells_array(cells, context="coords_array")
        rows, cols = np.divmod(cells, self.width)
        return np.column_stack(
            ((cols + 0.5) * self.cell_size, (rows + 0.5) * self.cell_size)
        )

    def snap(self, point) -> int:
        """Cell id containing the continuous point (clamped to the map edge).

        Perturbed locations can land outside the map; the paper's utility and
        tracing pipelines snap them back to the nearest cell, which this clamp
        implements.  A NaN or infinite coordinate has no nearest cell and
        raises :class:`~repro.errors.ValidationError`.
        """
        x, y = float(point[0]), float(point[1])
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValidationError(f"point must be finite, got ({x}, {y})")
        # Clamp before the int cast, so a huge finite point lands on the edge.
        col = int(min(max(np.floor(x / self.cell_size), 0), self.width - 1))
        row = int(min(max(np.floor(y / self.cell_size), 0), self.height - 1))
        return self.cell_of(row, col)

    def snap_batch(self, points) -> np.ndarray:
        """Vectorized :meth:`snap`: ``(n, 2)`` points to ``(n,)`` cell ids.

        A row with a NaN or infinite coordinate raises
        :class:`~repro.errors.ValidationError` naming the first such row.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValidationError(f"snap_batch expects (n, 2) points, got {pts.shape}")
        if not np.isfinite(pts).all():
            row = int(np.flatnonzero(~np.isfinite(pts).all(axis=1))[0])
            raise ValidationError(
                f"points must be finite; row {row} is {tuple(pts[row].tolist())}"
            )
        cols = np.clip(np.floor(pts[:, 0] / self.cell_size), 0, self.width - 1).astype(int)
        rows = np.clip(np.floor(pts[:, 1] / self.cell_size), 0, self.height - 1).astype(int)
        return rows * self.width + cols

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance between the centres of two cells."""
        xa, ya = self.coords(a)
        xb, yb = self.coords(b)
        return float(np.hypot(xa - xb, ya - yb))

    # ------------------------------------------------------------------
    # Map adjacency
    # ------------------------------------------------------------------
    def neighbors(self, cell: int, connectivity: int = 8) -> list[int]:
        """Cells adjacent on the map.

        ``connectivity=8`` matches the paper's G1 ("every location has edges
        with its closest eight locations on the map"); ``connectivity=4``
        gives rook adjacency.
        """
        if connectivity not in (4, 8):
            raise ValidationError(f"connectivity must be 4 or 8, got {connectivity}")
        row, col = self.rowcol(cell)
        if connectivity == 4:
            offsets = ((-1, 0), (1, 0), (0, -1), (0, 1))
        else:
            offsets = tuple(
                (dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)
            )
        result = []
        for drow, dcol in offsets:
            nrow, ncol = row + drow, col + dcol
            if 0 <= nrow < self.height and 0 <= ncol < self.width:
                result.append(self.cell_of(nrow, ncol))
        return result

    # ------------------------------------------------------------------
    # Coarse-area partition (for policies Ga / Gb)
    # ------------------------------------------------------------------
    def area_of(self, cell: int, block_rows: int, block_cols: int) -> int:
        """Index of the coarse area containing ``cell``.

        The map is tiled with ``block_rows x block_cols`` blocks ("cities or
        provinces" in the paper's location-monitoring policy Ga).  Edge blocks
        may be smaller when the grid is not an exact multiple.
        """
        check_integer("block_rows", block_rows, minimum=1)
        check_integer("block_cols", block_cols, minimum=1)
        row, col = self.rowcol(cell)
        blocks_per_row = -(-self.width // block_cols)  # ceil division
        return (row // block_rows) * blocks_per_row + (col // block_cols)

    def area_of_batch(self, cells, block_rows: int, block_cols: int) -> np.ndarray:
        """Vectorized :meth:`area_of`: ``(n,)`` cell ids to ``(n,)`` int64 area ids.

        The tiling and the cells are checked as :meth:`area_of` checks them
        (an out-of-range id or a float or bool dtype raises
        :class:`~repro.errors.ValidationError`); the answer is then one
        gather from a read-only ``n_cells`` int64 ``cell -> area`` table,
        built once per world shape and tiling and shared by every caller.
        The result is a fresh array.  The scalar :meth:`area_of` keeps its
        own arithmetic and is the oracle this table is tested against.
        """
        table = _area_table(
            self.width,
            self.height,
            check_integer("block_rows", block_rows, minimum=1),
            check_integer("block_cols", block_cols, minimum=1),
        )
        return table[self.cells_array(cells, context="area_of_batch")]

    def n_areas(self, block_rows: int, block_cols: int) -> int:
        """Number of coarse areas in the ``block_rows x block_cols`` tiling."""
        check_integer("block_rows", block_rows, minimum=1)
        check_integer("block_cols", block_cols, minimum=1)
        return (-(-self.height // block_rows)) * (-(-self.width // block_cols))

    def areas(self, block_rows: int, block_cols: int) -> dict[int, list[int]]:
        """Partition of all cells into coarse areas, ``{area_id: [cells]}``."""
        partition: dict[int, list[int]] = {}
        for cell in self:
            partition.setdefault(self.area_of(cell, block_rows, block_cols), []).append(cell)
        return partition

    def area_centroid(self, cells: list[int]) -> tuple[float, float]:
        """Mean centre coordinate of a set of cells (for flow aggregation)."""
        if not cells:
            raise ValidationError("cannot take the centroid of zero cells")
        pts = self.coords_array(cells)
        cx, cy = pts.mean(axis=0)
        return (float(cx), float(cy))
