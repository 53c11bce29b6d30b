"""P-LM: the policy-aware (planar) Laplace mechanism.

The paper's companion report adapts the Laplace mechanism to a policy graph.
Our instantiation calibrates planar Laplace noise to the **edge-wise Euclidean
sensitivity** of the connected component containing the true location:

    Delta(C) = max { d_E(s_i, s_j) : (s_i, s_j) in E(C) }

and releases ``z = x(s) + PlanarLaplace(rate = epsilon / Delta(C))``.  For any
1-neighbors ``s, s'`` (necessarily in the same component)::

    pdf(z|s) / pdf(z|s') <= exp((eps/Delta) * d_E(s, s')) <= exp(eps)

so Definition 2.4 holds, and chaining along shortest paths gives Lemma 2.1's
``eps * d_G`` guarantee for all connected pairs.  Because the privacy
constraint only ever compares locations *within* a component, calibrating
Delta per component is sound and strictly improves utility over a global
constant.  Isolated nodes are disclosable and released exactly by the base
class.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.mechanisms.base import Mechanism
from repro.core.policy_graph import PolicyGraph
from repro.errors import MechanismError
from repro.geo.grid import GridWorld

__all__ = ["PolicyLaplaceMechanism", "planar_laplace_perturb", "planar_laplace_pdf"]


def planar_laplace_perturb(centres: np.ndarray, rates, u: np.ndarray) -> np.ndarray:
    """Vectorized planar-Laplace draws from a block of uniforms.

    Inverse CDF: the radius is Gamma(2, 1/rate) (sum of two exponentials),
    the angle uniform.  ``u`` is ``(n, 3)`` with one row of uniforms per
    release, so callers consuming ``rng.random((n, 3))`` keep the stream
    identical to scalar sequential draws.  Shared by P-LM (per-component
    rates) and the Geo-I baseline (one constant rate).
    """
    radii = -(np.log1p(-u[:, 0]) + np.log1p(-u[:, 1])) / rates
    theta = 2.0 * math.pi * u[:, 2]
    return centres + radii[:, None] * np.column_stack((np.cos(theta), np.sin(theta)))


def planar_laplace_pdf(points: np.ndarray, centres: np.ndarray, rates) -> np.ndarray:
    """``(m, n)`` planar-Laplace densities of points against cell centres."""
    distances = np.hypot(
        points[:, None, 0] - centres[None, :, 0],
        points[:, None, 1] - centres[None, :, 1],
    )
    return rates**2 / (2.0 * math.pi) * np.exp(-rates * distances)


class PolicyLaplaceMechanism(Mechanism):
    """Planar Laplace noise calibrated to per-component edge sensitivity."""

    uniform_width = 3

    def __init__(self, world: GridWorld, graph: PolicyGraph, epsilon: float) -> None:
        super().__init__(world, graph, epsilon)
        # Per-node edge sensitivity Delta(C) depends only on (world, graph),
        # not on epsilon, so it is cached on the (immutable) graph instance:
        # sweeping epsilons over a shared policy object pays the component
        # walk once and rebuilds only the epsilon-scaled rates.
        cache = graph.__dict__.setdefault("_plm_delta_cache", {})
        deltas = cache.get(world)
        if deltas is None:
            deltas = {}
            for component in graph.components():
                delta = self._edge_diameter(component)
                if delta is None:
                    continue  # singleton component: disclosable, no noise needed
                for node in component:
                    deltas[node] = delta
            cache[world] = deltas
        self._rate: dict[int, float] = {
            node: self.epsilon / delta for node, delta in deltas.items()
        }
        # Dense per-cell rate table for the batched kernels: replaces the
        # per-release Python dict walk with one np.take.  NaN marks
        # disclosable cells, which the batch paths never perturb.
        self._rate_table = np.full(world.n_cells, np.nan)
        for node, rate in self._rate.items():
            self._rate_table[node] = rate

    def _edge_diameter(self, component: frozenset[int]) -> float | None:
        """Longest Euclidean edge inside ``component`` (None if edgeless)."""
        longest = 0.0
        found = False
        for node in component:
            for nbr in self.graph.neighbors(node):
                if node < nbr:
                    found = True
                    longest = max(longest, self.world.distance(node, nbr))
        if not found:
            return None
        if longest <= 0:
            raise MechanismError("policy edge joins two coincident locations")
        return longest

    def noise_rate(self, cell: int) -> float:
        """The planar-Laplace rate ``epsilon / Delta(C)`` applied at ``cell``."""
        if cell not in self._rate:
            raise MechanismError(f"cell {cell} is disclosable; no noise rate defined")
        return self._rate[cell]

    def expected_error(self, cell: int) -> float:
        """Mean Euclidean error of the release at ``cell`` (= 2 / rate).

        The radial part of planar Laplace is Gamma(2, 1/rate), whose mean is
        ``2 / rate`` — handy for calibrating the tracing screen radius.
        """
        return 2.0 / self.noise_rate(cell)

    # ------------------------------------------------------------------
    def _rates_for(self, cells: np.ndarray) -> np.ndarray:
        return np.take(self._rate_table, cells)

    def _perturb(self, cell: int, rng: np.random.Generator) -> np.ndarray:
        return self._perturb_batch(np.array([cell]), rng)[0]

    def _perturb_batch(self, cells: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return planar_laplace_perturb(
            self.world.coords_array(cells),
            self._rates_for(cells),
            rng.random((len(cells), 3)),
        )

    def _pdf(self, point: np.ndarray, cell: int) -> float:
        # Scalar closed form; pdf has no RNG stream to keep in sync, so the
        # math.* path stays for per-call speed.
        rate = self._rate[cell]
        x, y = self.world.coords(cell)
        distance = math.hypot(point[0] - x, point[1] - y)
        return rate**2 / (2.0 * math.pi) * math.exp(-rate * distance)

    def _pdf_batch(self, points: np.ndarray, cells: np.ndarray) -> np.ndarray:
        return planar_laplace_pdf(
            points, self.world.coords_array(cells), self._rates_for(cells)
        )
