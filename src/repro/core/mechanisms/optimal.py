"""LP-optimal discrete PGLP mechanism (utility-optimality baseline).

For small location universes the utility-optimal ``{eps, G}``-private
mechanism with discrete output can be computed exactly as a linear program
(the classic construction behind optimal-LPPM work and the optimality
discussion of PIM [19]):

    minimise   sum_s prior(s) * sum_z p[s, z] * d_E(s, z)
    subject to sum_z p[s, z] = 1                          for every s
               p[s, z] <= e^eps * p[s', z]                for every edge (s, s'), every z
               p >= 0

Edge constraints suffice: chaining along shortest paths yields Lemma 2.1's
``eps * d_G`` bound for every connected pair.  The LP has ``n^2`` variables
per component, so this mechanism is gated by ``max_component_size`` — it is
an *ablation baseline* quantifying how close P-LM / P-PIM / graph-exponential
get to optimal, not a production path.

Requires scipy (an optional test dependency); importing this module without
scipy raises at construction time, not import time.
"""

from __future__ import annotations

import numpy as np

from repro.core.mechanisms.base import Mechanism
from repro.core.policy_graph import PolicyGraph
from repro.errors import MechanismError
from repro.geo.grid import GridWorld

__all__ = ["OptimalDiscreteMechanism"]


class OptimalDiscreteMechanism(Mechanism):
    """Exact utility-optimal discrete mechanism via linear programming.

    Parameters
    ----------
    world, graph, epsilon:
        As for every mechanism.
    prior:
        Optional weight over cells for the objective (defaults to uniform
        over each component); only its restriction to each component matters.
    max_component_size:
        Guard against accidentally solving an enormous LP; components larger
        than this raise :class:`~repro.errors.MechanismError`.
    """

    discrete = True
    uniform_width = 1

    def __init__(
        self,
        world: GridWorld,
        graph: PolicyGraph,
        epsilon: float,
        prior: np.ndarray | None = None,
        max_component_size: int = 64,
    ) -> None:
        super().__init__(world, graph, epsilon)
        try:
            from scipy.optimize import linprog  # noqa: F401
        except ImportError as exc:  # pragma: no cover - scipy ships in CI
            raise MechanismError("OptimalDiscreteMechanism requires scipy") from exc
        if prior is not None:
            prior = np.asarray(prior, dtype=float)
            if prior.shape != (world.n_cells,) or np.any(prior < 0):
                raise MechanismError("prior must be a non-negative vector over all cells")
        self._support: dict[int, tuple[int, ...]] = {}
        self._pmf_rows: dict[int, np.ndarray] = {}
        self._cmf_rows: dict[int, np.ndarray] = {}
        self._dense_rows: dict[int, np.ndarray] = {}
        for component in graph.components():
            if len(component) < 2:
                continue
            if len(component) > max_component_size:
                raise MechanismError(
                    f"component of size {len(component)} exceeds "
                    f"max_component_size={max_component_size}"
                )
            self._solve_component(sorted(component), prior)

    # ------------------------------------------------------------------
    def _solve_component(self, cells: list[int], prior: np.ndarray | None) -> None:
        from scipy import sparse
        from scipy.optimize import linprog

        n = len(cells)
        index = {cell: i for i, cell in enumerate(cells)}
        coords = self.world.coords_array(cells)
        diff = coords[:, None, :] - coords[None, :, :]
        distances = np.sqrt((diff**2).sum(axis=2))  # d_E(s, z)

        if prior is None:
            weights = np.full(n, 1.0 / n)
        else:
            weights = prior[cells]
            total = weights.sum()
            weights = np.full(n, 1.0 / n) if total <= 0 else weights / total

        # Variable p[s, z] is x[s * n + z].
        cost = (weights[:, None] * distances).ravel()

        grow = np.exp(self.epsilon)
        edges = [
            (index[u], index[v])
            for u, v in self.graph.edges()
            if u in index and v in index
        ]
        # Inequalities: p[u, z] - e^eps p[v, z] <= 0, both directions.
        n_rows = 2 * len(edges) * n
        data = np.empty(2 * n_rows)
        rows = np.empty(2 * n_rows, dtype=np.int64)
        cols = np.empty(2 * n_rows, dtype=np.int64)
        cursor = 0
        row = 0
        for u, v in edges:
            for z in range(n):
                for a, b in ((u, v), (v, u)):
                    rows[cursor], cols[cursor], data[cursor] = row, a * n + z, 1.0
                    cursor += 1
                    rows[cursor], cols[cursor], data[cursor] = row, b * n + z, -grow
                    cursor += 1
                    row += 1
        a_ub = sparse.coo_matrix((data, (rows, cols)), shape=(n_rows, n * n)).tocsr()
        b_ub = np.zeros(n_rows)

        # Equalities: each row of p sums to 1.
        eq_rows = np.repeat(np.arange(n), n)
        eq_cols = np.arange(n * n)
        a_eq = sparse.coo_matrix((np.ones(n * n), (eq_rows, eq_cols)), shape=(n, n * n)).tocsr()
        b_eq = np.ones(n)

        result = linprog(
            cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
            bounds=(0, None), method="highs",
        )
        if not result.success:  # pragma: no cover - the LP is always feasible
            raise MechanismError(f"optimal-mechanism LP failed: {result.message}")
        pmf = np.clip(result.x.reshape(n, n), 0.0, None)
        pmf /= pmf.sum(axis=1, keepdims=True)
        support = tuple(cells)
        for cell in cells:
            self._support[cell] = support
            self._pmf_rows[cell] = pmf[index[cell]]

    # ------------------------------------------------------------------
    def support(self, cell: int) -> tuple[int, ...]:
        """Candidate output cells for true cell ``cell``."""
        if cell not in self._support:
            raise MechanismError(f"cell {cell} is disclosable; no discrete support")
        return self._support[cell]

    def pmf(self, cell: int) -> np.ndarray:
        """Optimal release pmf over :meth:`support` for ``cell``."""
        if cell not in self._pmf_rows:
            raise MechanismError(f"cell {cell} is disclosable; no pmf defined")
        return self._pmf_rows[cell]

    def expected_error(self, cell: int) -> float:
        """Expected Euclidean release error at ``cell`` (the LP's objective row)."""
        support = self.support(cell)
        coords = self.world.coords_array(support)
        x, y = self.world.coords(cell)
        distances = np.sqrt(((coords - (x, y)) ** 2).sum(axis=1))
        return float(self.pmf(cell) @ distances)

    # ------------------------------------------------------------------
    def _cmf(self, cell: int) -> np.ndarray:
        cached = self._cmf_rows.get(cell)
        if cached is None:
            cached = np.cumsum(self._pmf_rows[cell])
            cached[-1] = 1.0  # guard against float drift at the top end
            self._cmf_rows[cell] = cached
        return cached

    def _perturb(self, cell: int, rng: np.random.Generator) -> np.ndarray:
        return self._perturb_batch(np.array([cell]), rng)[0]

    def _perturb_batch(self, cells: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        # One uniform per cell through the LP row's cumulative pmf (see
        # GraphExponentialMechanism._perturb_batch).
        u = rng.random(len(cells))
        choices = np.empty(len(cells), dtype=int)
        for i, cell in enumerate(cells):
            support = self._support[int(cell)]
            index = int(np.searchsorted(self._cmf(int(cell)), u[i], side="right"))
            choices[i] = support[min(index, len(support) - 1)]
        return self.world.coords_array(choices)

    def _pdf(self, point: np.ndarray, cell: int) -> float:
        released = self.world.snap(point)
        support = self._support[cell]
        try:
            position = support.index(released)
        except ValueError:
            return 0.0
        return float(self._pmf_rows[cell][position])

    def _dense_pmf(self, cell: int) -> np.ndarray:
        """Pmf scattered over all world cells (cached; LP rows are immutable)."""
        cached = self._dense_rows.get(cell)
        if cached is None:
            cached = np.zeros(self.world.n_cells)
            cached[list(self._support[cell])] = self._pmf_rows[cell]
            self._dense_rows[cell] = cached
        return cached

    def _pdf_batch(self, points: np.ndarray, cells: np.ndarray) -> np.ndarray:
        released = self.world.snap_batch(points)
        out = np.empty((len(points), len(cells)))
        for j, cell in enumerate(cells):
            out[:, j] = self._dense_pmf(int(cell))[released]
        return out
