"""Baseline mechanisms the paper compares against / generalises.

* :class:`GeoIndistinguishabilityMechanism` — the planar Laplace mechanism of
  Andres et al. [5]: ``eps * d_E`` indistinguishability between *all* pairs of
  locations.  PGLP with policy G1 implies this guarantee (Theorem 2.1), so the
  baseline is both a comparator and a correctness oracle for the tests.
* :class:`LocationSetPIMechanism` — the Planar Isotropic Mechanism of Xiao &
  Xiong [19] for delta-Location Set Privacy, realised here as P-PIM over a
  complete policy graph on the location set (Theorem 2.2 states the
  equivalence in the other direction).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.core.mechanisms.base import Mechanism, Release
from repro.core.mechanisms.laplace import planar_laplace_pdf, planar_laplace_perturb
from repro.core.mechanisms.pim import PolicyPlanarIsotropicMechanism
from repro.core.policies import complete_policy, grid_policy, location_set_policy
from repro.core.policy_graph import PolicyGraph
from repro.geo.grid import GridWorld
from repro.utils.rng import ensure_rng

__all__ = ["GeoIndistinguishabilityMechanism", "LocationSetPIMechanism"]


class GeoIndistinguishabilityMechanism(Mechanism):
    """Planar Laplace with rate ``epsilon`` per unit of Euclidean distance.

    The budget parameter follows Geo-I's convention: two locations at
    Euclidean distance ``d`` are ``epsilon * d``-indistinguishable.  The
    policy graph attached to the mechanism is G1 (grid adjacency), recording
    the PGLP policy whose guarantee Geo-I matches on unit-spaced grids.
    """

    uniform_width = 3

    def __init__(self, world: GridWorld, epsilon: float, graph: PolicyGraph | None = None) -> None:
        super().__init__(world, graph if graph is not None else grid_policy(world), epsilon)

    def is_exact(self, cell: int) -> bool:
        """Geo-I never discloses: every location gets planar Laplace noise."""
        return False

    def _perturb(self, cell: int, rng: np.random.Generator) -> np.ndarray:
        return self._perturb_batch(np.array([cell]), rng)[0]

    def _perturb_batch(self, cells: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        # Same inverse-CDF planar Laplace as P-LM, at the constant Geo-I rate.
        return planar_laplace_perturb(
            self.world.coords_array(cells), self.epsilon, rng.random((len(cells), 3))
        )

    def _pdf(self, point: np.ndarray, cell: int) -> float:
        x, y = self.world.coords(cell)
        distance = math.hypot(point[0] - x, point[1] - y)
        return self.epsilon**2 / (2.0 * math.pi) * math.exp(-self.epsilon * distance)

    def _pdf_batch(self, points: np.ndarray, cells: np.ndarray) -> np.ndarray:
        return planar_laplace_pdf(points, self.world.coords_array(cells), self.epsilon)


class LocationSetPIMechanism(PolicyPlanarIsotropicMechanism):
    """Xiao-Xiong PIM over a (delta-)location set.

    Built as P-PIM with a complete policy over ``location_set``: the
    sensitivity hull equals the hull of pairwise differences of the set,
    which is exactly the sensitivity hull of delta-Location Set Privacy.
    """

    def __init__(
        self,
        world: GridWorld,
        location_set: Iterable[int],
        epsilon: float,
        embed_in_world: bool = False,
    ) -> None:
        cells = sorted({world.check_cell(c) for c in location_set})
        if embed_in_world:
            graph = location_set_policy(world, cells, include_rest=True, name="G2")
        else:
            graph = complete_policy(cells, name="G2")
        super().__init__(world, graph, epsilon)
        self.location_set = tuple(cells)

    def release(self, cell: int, rng=None) -> Release:
        """Release; single-cell location sets disclose (no indistinguishability pair).

        With ``embed_in_world=True`` cells outside the set are isolated policy
        nodes and therefore disclosed exactly — matching [19], where the
        adversary already knows the user is inside the delta-location set.
        """
        return super().release(cell, rng=ensure_rng(rng))
