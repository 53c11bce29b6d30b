"""Preallocated buffer pool for fused release rounds.

The staged hot path (``release_batch`` -> ``snap_batch`` -> ``area_of_batch``
-> flow coding) materialises a fresh intermediate array at every stage — a
dozen ``O(n)`` temporaries per round — so a 10M-release round is bound by
allocator traffic and memory bandwidth rather than arithmetic.  A
:class:`RoundWorkspace` is the cure: one named-buffer pool sized once per
``(users, horizon)`` and reused across rounds, through which every fused
kernel writes with ``out=`` ufunc parameters instead of allocating.

Buffer contract
---------------
``buffer(key, n)`` returns a length-``n`` view of a pooled array owned by
``key``; the same key always returns the *same* storage (grown geometrically
when ``n`` exceeds the pool), so a kernel that names its scratch buffers is
allocation-free from the second round on.  Keys are namespaced by caller
("plm_uniforms", "geo_scratch_f", "snapped", ...) — two kernels that run
*within one fused pass* must use distinct keys; kernels that run after one
another may share scratch keys.

Workspaces are **not** thread-safe: one workspace serves one release stream.
The fused single-stream path owns one per run; sharded workers use none,
since each shard is one allocating ``release_batch`` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.geo.grid import FUSED_TILE_ROWS

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.core.mechanisms.base import ReleaseBatch

__all__ = ["RoundWorkspace", "FusedRound", "FUSED_TILE_ROWS"]


class RoundWorkspace:
    """Reusable named buffers for one fused release stream.

    Parameters
    ----------
    capacity:
        Initial row capacity.  Buffers grow geometrically when a larger
        round arrives, so undersizing costs one reallocation, not
        correctness.
    """

    def __init__(self, capacity: int = 0) -> None:
        self.capacity = max(int(capacity), 0)
        self._pool: dict[str, np.ndarray] = {}
        self.rounds_served = 0

    @classmethod
    def for_population(cls, n_users: int, horizon: int = 1) -> "RoundWorkspace":
        """Workspace sized for a run of ``n_users`` users over ``horizon``.

        Rounds are at most one release per user, and a shard worker's
        largest single batch is one user's whole trace (``horizon`` rows),
        so the larger of the two bounds every buffer request up front.
        """
        return cls(max(int(n_users), int(horizon), 1))

    # ------------------------------------------------------------------
    def buffer(self, key: str, n: int, dtype=float, cols: int = 0) -> np.ndarray:
        """A ``(n,)`` (or ``(n, cols)``) view of the pooled array for ``key``.

        The same key always maps to the same storage; dtype and column
        count are fixed by the first request for a key (changing them is a
        programming error and raises).  Contents are *not* cleared between
        requests — fused kernels overwrite every element they read.
        """
        n = int(n)
        shape = (n, cols) if cols else (n,)
        pooled = self._pool.get(key)
        if pooled is not None:
            expected_cols = pooled.shape[1] if pooled.ndim == 2 else 0
            if pooled.dtype != np.dtype(dtype) or expected_cols != cols:
                raise ValueError(
                    f"workspace buffer {key!r} was created with dtype="
                    f"{pooled.dtype}/cols={expected_cols}, requested "
                    f"dtype={np.dtype(dtype)}/cols={cols}"
                )
        if pooled is None or len(pooled) < n:
            size = max(n, self.capacity, 2 * len(pooled) if pooled is not None else 0)
            pooled = np.empty((size, cols) if cols else (size,), dtype=dtype)
            self._pool[key] = pooled
            self.capacity = max(self.capacity, size)
        return pooled[:n].reshape(shape)

    def int_buffer(self, key: str, n: int) -> np.ndarray:
        """Shorthand for an integer ``(n,)`` buffer (the cell-id dtype)."""
        return self.buffer(key, n, dtype=int)

    def bool_buffer(self, key: str, n: int) -> np.ndarray:
        """Shorthand for a boolean ``(n,)`` buffer (masks)."""
        return self.buffer(key, n, dtype=bool)

    def points_buffer(self, key: str, n: int) -> np.ndarray:
        """Shorthand for an ``(n, 2)`` float coordinate buffer."""
        return self.buffer(key, n, dtype=float, cols=2)

    # ------------------------------------------------------------------
    @property
    def keys(self) -> tuple[str, ...]:
        """Currently pooled buffer keys (diagnostics / aliasing tests)."""
        return tuple(sorted(self._pool))

    def owns(self, array: np.ndarray) -> bool:
        """Whether ``array`` is a view into this workspace's pool."""
        base = array.base if array.base is not None else array
        return any(pooled is base for pooled in self._pool.values())

    def nbytes(self) -> int:
        """Total bytes currently pooled."""
        return sum(pooled.nbytes for pooled in self._pool.values())

    def __repr__(self) -> str:
        return (
            f"RoundWorkspace(capacity={self.capacity}, buffers={len(self._pool)}, "
            f"nbytes={self.nbytes()})"
        )


@dataclass
class FusedRound:
    """The output views of one :meth:`PrivacyEngine.release_round_fused` pass.

    Every array is a **view into the workspace** (except when the caller
    supplied none, in which case a private workspace backs them): consume or
    copy the columns you keep before the next fused round overwrites them.
    ``batch`` carries the release columns in the usual
    :class:`~repro.core.mechanisms.ReleaseBatch` shape, so downstream
    consumers (``Server.ingest_batch``, the attacker) need no new types.

    ``flow_codes`` / ``flow_mask`` are present only when the round was asked
    to fuse flow coding (``users=`` / ``times=`` given alongside the block
    shape): ``flow_codes[i] = area[i] * n_areas + area[i+1]`` with
    ``flow_mask`` selecting consecutive same-user steps — exactly the codes
    :meth:`~repro.epidemic.monitor.LocationMonitor.flows_from_arrays`
    counts.
    """

    batch: "ReleaseBatch"
    snapped: np.ndarray
    areas: np.ndarray | None = None
    flow_codes: np.ndarray | None = None
    flow_mask: np.ndarray | None = None
    workspace: RoundWorkspace | None = field(default=None, repr=False)

    @property
    def points(self) -> np.ndarray:
        """``(n, 2)`` released coordinates (view)."""
        return self.batch.points

    @property
    def cells(self) -> np.ndarray:
        """``(n,)`` true cells the releases were drawn for (view)."""
        return self.batch.cells

    def __len__(self) -> int:
        return len(self.batch)
