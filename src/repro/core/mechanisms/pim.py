"""P-PIM: the policy-aware Planar Isotropic Mechanism.

The Planar Isotropic Mechanism (Xiao & Xiong, CCS'15) is the optimal
mechanism for Location Set Privacy; the PGLP report adapts it to a policy
graph by replacing the location-set sensitivity hull with the **edge
sensitivity hull** of the component containing the true location::

    K(C) = conv{ +-(x(s_i) - x(s_j)) : (s_i, s_j) in E(C) }

and releasing with the K-norm mechanism ``pdf(z|s) ∝ exp(-eps * ||z - x(s)||_K)``.
For 1-neighbors, ``x(s) - x(s')`` is a vertex generator of ``K`` so its
K-norm is at most 1, giving ``pdf(z|s)/pdf(z|s') <= exp(eps)`` (Def. 2.4);
k-hop pairs follow by the gauge's triangle inequality (Lemma 2.1).

Sampling uses the Hardt-Talwar decomposition for d = 2:
``z = x(s) + r * u`` with ``r ~ Gamma(3, 1/eps)`` and ``u ~ Uniform(K)``,
whose density is exactly ``eps^2 * exp(-eps*||z-x||_K) / (2*area(K))``.
The K-norm mechanism is affine-equivariant, so Xiao-Xiong's isotropic
transform leaves the release distribution unchanged; we expose the hull's
isotropic statistics for analysis instead (see ``hull_eccentricity``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.mechanisms.base import Mechanism
from repro.core.policy_graph import PolicyGraph
from repro.errors import MechanismError
from repro.geo.geometry import ConvexPolygon, isotropic_transform
from repro.geo.grid import GridWorld

__all__ = ["PolicyPlanarIsotropicMechanism"]


class PolicyPlanarIsotropicMechanism(Mechanism):
    """K-norm mechanism over the per-component edge sensitivity hull."""

    uniform_width = 6

    def __init__(self, world: GridWorld, graph: PolicyGraph, epsilon: float) -> None:
        super().__init__(world, graph, epsilon)
        # Sensitivity hulls are pure (world, graph) geometry — epsilon only
        # scales the gamma radius at sample time — so they are cached on the
        # (immutable) graph instance and shared across epsilon sweeps.
        cache = graph.__dict__.setdefault("_ppim_hull_cache", {})
        cached = cache.get(world)
        if cached is None:
            hulls: list[ConvexPolygon] = []
            index_of: dict[int, int] = {}
            for component in graph.components():
                hull = self._sensitivity_hull(component)
                if hull is None:
                    continue  # singleton: disclosable
                index = len(hulls)
                hulls.append(hull)
                for node in component:
                    index_of[node] = index
            # Dense cell -> component table (-1 = disclosable) so the batch
            # kernels group by component with one np.take instead of a
            # per-release Python dict walk.
            table = np.full(world.n_cells, -1, dtype=int)
            for node, index in index_of.items():
                table[node] = index
            table.setflags(write=False)
            cached = (hulls, index_of, table)
            cache[world] = cached
        self._hull_by_component, self._component_index, self._component_table = cached

    def _sensitivity_hull(self, component: frozenset[int]) -> ConvexPolygon | None:
        """Symmetrised convex hull of edge coordinate differences."""
        differences: list[tuple[float, float]] = []
        for node in component:
            xa, ya = self.world.coords(node)
            for nbr in self.graph.neighbors(node):
                if node < nbr:
                    xb, yb = self.world.coords(nbr)
                    differences.append((xa - xb, ya - yb))
                    differences.append((xb - xa, yb - ya))
        if not differences:
            return None
        return ConvexPolygon.from_points(differences, min_width=1e-9)

    # ------------------------------------------------------------------
    def sensitivity_hull(self, cell: int) -> ConvexPolygon:
        """The sensitivity hull governing releases at ``cell``."""
        if cell not in self._component_index:
            raise MechanismError(f"cell {cell} is disclosable; no sensitivity hull")
        return self._hull_by_component[self._component_index[cell]]

    def hull_eccentricity(self, cell: int) -> float:
        """Anisotropy of the hull: condition number of its isotropic transform.

        1.0 means the hull is already isotropic (P-PIM coincides with a
        radially symmetric mechanism); large values are where P-PIM beats
        P-LM, which wastes budget on the hull's short axis.
        """
        transform = isotropic_transform(self.sensitivity_hull(cell))
        singular_values = np.linalg.svd(transform, compute_uv=False)
        return float(singular_values.max() / singular_values.min())

    def knorm(self, cell: int, vector) -> float:
        """``||vector||_K`` for the hull at ``cell`` (test/analysis hook)."""
        return self.sensitivity_hull(cell).gauge(vector)

    def expected_error(self, cell: int) -> float:
        """Mean Euclidean release error at ``cell``.

        ``E||r * u||`` with ``r ~ Gamma(3, 1/eps)`` independent of ``u``:
        ``(3/eps) * E||u||`` where ``u ~ Uniform(K)``, estimated from the
        hull's second moment: ``E||u|| <= sqrt(trace(cov) + ||centroid||^2)``
        (exact enough for screen-radius calibration).
        """
        hull = self.sensitivity_hull(cell)
        second_moment = float(np.trace(hull.covariance()) + np.dot(hull.centroid, hull.centroid))
        return 3.0 / self.epsilon * math.sqrt(second_moment)

    # ------------------------------------------------------------------
    def _perturb(self, cell: int, rng: np.random.Generator) -> np.ndarray:
        return self._perturb_batch(np.array([cell]), rng)[0]

    def _sample_directions(
        self, component: np.ndarray, u: np.ndarray, directions: np.ndarray
    ) -> np.ndarray:
        """Fill ``directions`` with Uniform(K) draws grouped by component."""
        for index in np.unique(component):
            mask = component == index
            directions[mask] = self._hull_by_component[index].sample_from_uniforms(
                u[mask, 3], u[mask, 4], u[mask, 5]
            )
        return directions

    def _perturb_batch(self, cells: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        # Hardt-Talwar: z = x(s) + r * u with r ~ Gamma(3, 1/eps) (three
        # exponentials by inverse CDF) and u ~ Uniform(K).  Six uniforms per
        # row keep the stream identical to scalar sequential releases; cells
        # are then grouped by component so each hull samples vectorized.
        n = len(cells)
        u = rng.random((n, 6))
        radii = -(
            np.log1p(-u[:, 0]) + np.log1p(-u[:, 1]) + np.log1p(-u[:, 2])
        ) / self.epsilon
        component = np.take(self._component_table, cells)
        directions = self._sample_directions(component, u, np.empty((n, 2)))
        centres = self.world.coords_array(cells)
        return centres + radii[:, None] * directions

    def _pdf(self, point: np.ndarray, cell: int) -> float:
        hull = self._hull_by_component[self._component_index[cell]]
        x, y = self.world.coords(cell)
        gauge = hull.gauge((point[0] - x, point[1] - y))
        return self.epsilon**2 / (2.0 * hull.area) * math.exp(-self.epsilon * gauge)

    def _pdf_batch(self, points: np.ndarray, cells: np.ndarray) -> np.ndarray:
        centres = self.world.coords_array(cells)
        component = np.take(self._component_table, cells)
        out = np.empty((len(points), len(cells)))
        for index in np.unique(component):
            mask = component == index
            hull = self._hull_by_component[index]
            displacements = points[:, None, :] - centres[None, mask, :]
            gauges = hull.gauge_many(displacements)
            scale = self.epsilon**2 / (2.0 * hull.area)
            out[:, mask] = scale * np.exp(-self.epsilon * gauges)
        return out
