"""Graph-exponential mechanism: discrete PGLP release over policy nodes.

A cell-valued alternative to the continuous mechanisms: the release is a cell
of the true location's component, drawn with probability::

    Pr(z | s) ∝ exp(-(eps / 2) * d_G(s, z))

The eps/2 factor covers the shift of the normalising constant between
1-neighbors: both the unnormalised weight ratio and the partition-function
ratio are bounded by ``exp(eps/2)``, so the released pmf satisfies
Definition 2.4 with budget eps.  Discrete output is what a production
"health code" service would publish (cell/area ids rather than raw
coordinates); it also demonstrates that PGLP is not tied to planar noise.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.mechanisms.base import Mechanism
from repro.core.policy_graph import PolicyGraph
from repro.errors import MechanismError
from repro.geo.grid import GridWorld

__all__ = ["GraphExponentialMechanism"]


class GraphExponentialMechanism(Mechanism):
    """Exponential mechanism scored by policy-graph distance."""

    discrete = True
    uniform_width = 1

    def __init__(self, world: GridWorld, graph: PolicyGraph, epsilon: float) -> None:
        super().__init__(world, graph, epsilon)
        # Per non-singleton component: sorted candidate cells; per node:
        # probability vector over those candidates (computed lazily, cached).
        self._candidates: dict[int, tuple[int, ...]] = {}
        self._pmf_cache: dict[int, np.ndarray] = {}
        self._cmf_cache: dict[int, np.ndarray] = {}
        self._dense_cache: dict[int, np.ndarray] = {}
        for component in graph.components():
            if len(component) < 2:
                continue
            ordered = tuple(sorted(component))
            for node in component:
                self._candidates[node] = ordered

    def support(self, cell: int) -> tuple[int, ...]:
        """The candidate output cells for true cell ``cell``."""
        if cell not in self._candidates:
            raise MechanismError(f"cell {cell} is disclosable; no discrete support")
        return self._candidates[cell]

    def pmf(self, cell: int) -> np.ndarray:
        """Release pmf over :meth:`support` for true cell ``cell``."""
        if cell not in self._candidates:
            raise MechanismError(f"cell {cell} is disclosable; no pmf defined")
        cached = self._pmf_cache.get(cell)
        if cached is not None:
            return cached
        candidates = self._candidates[cell]
        distances = self.graph.distances_from(cell)
        weights = np.array(
            [math.exp(-self.epsilon / 2.0 * distances[candidate]) for candidate in candidates]
        )
        probabilities = weights / weights.sum()
        self._pmf_cache[cell] = probabilities
        return probabilities

    def _cmf(self, cell: int) -> np.ndarray:
        """Cumulative pmf over :meth:`support`, for inverse-CDF sampling."""
        cached = self._cmf_cache.get(cell)
        if cached is None:
            cached = np.cumsum(self.pmf(cell))
            cached[-1] = 1.0  # guard against float drift at the top end
            self._cmf_cache[cell] = cached
        return cached

    # ------------------------------------------------------------------
    def _perturb(self, cell: int, rng: np.random.Generator) -> np.ndarray:
        return self._perturb_batch(np.array([cell]), rng)[0]

    def _perturb_batch(self, cells: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        # One uniform per cell, mapped through the cell's cumulative pmf.
        # The inverse-CDF walk is per-cell Python (table lookups, not
        # arithmetic).
        u = rng.random(len(cells))
        choices = np.empty(len(cells), dtype=int)
        for i, cell in enumerate(cells):
            candidates = self._candidates[int(cell)]
            index = int(np.searchsorted(self._cmf(int(cell)), u[i], side="right"))
            choices[i] = candidates[min(index, len(candidates) - 1)]
        return self.world.coords_array(choices)

    def _pdf(self, point: np.ndarray, cell: int) -> float:
        """Pmf of the cell whose centre the released point snaps to."""
        released_cell = self.world.snap(point)
        candidates = self._candidates[cell]
        try:
            index = candidates.index(released_cell)
        except ValueError:
            return 0.0
        return float(self.pmf(cell)[index])

    def _dense_pmf(self, cell: int) -> np.ndarray:
        """Pmf scattered over all world cells (cached; pmfs are immutable)."""
        cached = self._dense_cache.get(cell)
        if cached is None:
            cached = np.zeros(self.world.n_cells)
            cached[list(self._candidates[cell])] = self.pmf(cell)
            self._dense_cache[cell] = cached
        return cached

    def _pdf_batch(self, points: np.ndarray, cells: np.ndarray) -> np.ndarray:
        released = self.world.snap_batch(points)
        out = np.empty((len(points), len(cells)))
        for j, cell in enumerate(cells):
            out[:, j] = self._dense_pmf(int(cell))[released]
        return out
