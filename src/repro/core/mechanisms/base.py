"""Mechanism interface shared by all PGLP mechanisms and baselines.

A mechanism maps a true location (grid cell) to a *released* planar point.
Every implementation provides:

* :meth:`Mechanism.release` — draw a perturbed location;
* :meth:`Mechanism.pdf` — the release density (or pmf for discrete
  mechanisms), used by the Bayesian adversary and the analytic privacy tests;
* :meth:`Mechanism.is_exact` — whether the policy discloses a cell exactly
  (isolated policy nodes, Lemma 2.1's extreme case).

Batched interface
-----------------
The scalar methods above are thin wrappers over two overridable hooks:

* :meth:`Mechanism._perturb_batch` — draw releases for many cells at once,
  returning an ``(n, 2)`` array;
* :meth:`Mechanism._pdf_batch` — evaluate the density on an ``(m, 2)`` grid
  of points against ``n`` cells at once, returning ``(m, n)``.

The base class provides generic Python-loop fallbacks, so subclasses only
need the scalar ``_perturb`` / ``_pdf``; the first-party mechanisms override
the batch hooks with true NumPy vectorization and delegate the scalar hooks
to singleton batches.  Because vectorized samplers consume uniforms from
``rng.random((n, k))`` blocks row by row, ``release_batch(cells, rng)``
draws *exactly* the stream that sequential ``release(cell, rng)`` calls
would — batching is a pure throughput optimisation, not a semantic change.
:meth:`release_batch` returns a :class:`ReleaseBatch` (structure-of-arrays),
and :meth:`pdf_matrix` is the batched likelihood the Bayesian adversary and
the HMM filter consume.

``release_batch(cells, streams=(seeds, counts))`` releases many users' rows
in one call, each block of rows drawing from its own
``np.random.default_rng(seed)``.  A mechanism that declares
:attr:`Mechanism.uniform_width` has every block's uniforms drawn into one
buffer by one :func:`~repro.utils.rng.stream_uniforms` call, which
computes numpy's own per-seed streams in array ops (bit-identical, with no
generator built per block), and runs its kernel once over all the noisy
rows; one without it runs the kernel once per block on a fresh
``default_rng(seed)``.  A seed is a Python or numpy integer in
``[0, 2**64)`` and a count a non-negative integer, never a bool; anything
else raises :class:`~repro.errors.MechanismError` naming the stream.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.core.policy_graph import PolicyGraph
from repro.errors import MechanismError, ValidationError
from repro.geo.grid import GridWorld
from repro.utils.rng import count_array, ensure_rng, seed_array, stream_uniforms
from repro.utils.validation import check_epsilon, check_int_array

__all__ = ["Release", "ReleaseBatch", "Mechanism"]


@dataclass(frozen=True)
class Release:
    """One perturbed location release.

    Attributes
    ----------
    point:
        The released planar coordinate ``(x, y)``.
    exact:
        True when the policy allowed exact disclosure of the true location
        (the release carries no noise).
    mechanism:
        Name of the producing mechanism, for experiment bookkeeping.
    epsilon:
        The privacy budget charged for this release (0 when ``exact`` —
        disclosure is a policy decision, not a budget expenditure).
    """

    point: tuple[float, float]
    exact: bool = False
    mechanism: str = ""
    epsilon: float = 0.0
    metadata: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class ReleaseBatch:
    """Many releases in structure-of-arrays layout.

    The batched counterpart of :class:`Release`, produced by
    :meth:`Mechanism.release_batch`.  Keeping the columns as flat arrays is
    what lets the server pipeline, the monitoring apps and the benchmarks
    stay allocation-free on the hot path; :meth:`to_releases` recovers the
    scalar records when object-per-release ergonomics are wanted.

    Attributes
    ----------
    points:
        ``(n, 2)`` released planar coordinates.
    exact:
        ``(n,)`` bool — True where the policy disclosed the cell exactly.
    epsilons:
        ``(n,)`` budget charged per release (0 where ``exact``).
    cells:
        ``(n,)`` the true cells the releases were drawn for.
    mechanism:
        Name of the producing mechanism.
    """

    points: np.ndarray
    exact: np.ndarray
    epsilons: np.ndarray
    cells: np.ndarray
    mechanism: str = ""

    def __post_init__(self) -> None:
        n = len(self.cells)
        if self.points.shape != (n, 2):
            raise MechanismError(
                f"points must have shape ({n}, 2), got {self.points.shape}"
            )
        if self.exact.shape != (n,) or self.epsilons.shape != (n,):
            raise MechanismError("exact and epsilons must be flat arrays over the batch")

    def __len__(self) -> int:
        return len(self.cells)

    def __getitem__(self, index: int) -> Release:
        i = int(index)
        return Release(
            point=(float(self.points[i, 0]), float(self.points[i, 1])),
            exact=bool(self.exact[i]),
            mechanism=self.mechanism,
            epsilon=float(self.epsilons[i]),
        )

    def __iter__(self) -> Iterator[Release]:
        return (self[i] for i in range(len(self)))

    def to_releases(self) -> list[Release]:
        """The batch as scalar :class:`Release` records (AoS view)."""
        return [self[i] for i in range(len(self))]


class _DrawnUniforms:
    """Uniforms drawn ahead of a kernel, served in draw order.

    Exposes ``random(size=None)`` like :meth:`numpy.random.Generator.random`,
    so a :attr:`Mechanism.uniform_width` kernel reads the buffer exactly as
    it would read one generator.  Each value is served once, so a kernel
    may use a served view as scratch.
    """

    def __init__(self, uniforms: np.ndarray) -> None:
        self._flat = uniforms.reshape(-1)
        self._served = 0

    @property
    def left(self) -> int:
        """Uniforms not yet served."""
        return len(self._flat) - self._served

    def random(self, size=None):
        if size is None:
            return float(self._take(1)[0])
        return self._take(int(np.prod(size))).reshape(size)

    def _take(self, count: int) -> np.ndarray:
        if count > self.left:
            raise MechanismError(
                f"kernel asked for {count} uniforms, {self.left} left; "
                "its uniform_width is declared too small"
            )
        start = self._served
        self._served += count
        return self._flat[start : start + count]


class Mechanism(abc.ABC):
    """Base class for ``{epsilon, G}``-location-privacy mechanisms.

    Parameters
    ----------
    world:
        The grid world supplying node coordinates.
    graph:
        The location policy graph; must cover a subset of the world's cells.
    epsilon:
        Privacy budget per release.
    """

    #: Whether :meth:`pdf` is a probability *mass* function over cells
    #: (discrete output) rather than a planar density.
    discrete: bool = False

    #: Uniforms per noisy row that :meth:`_perturb_batch` consumes, or
    #: ``None``.  Declaring it promises that the kernel draws exactly
    #: ``rng.random((n, uniform_width))`` for ``n`` cells, in row order, and
    #: that each row's output depends only on its own uniforms.
    #: ``release_batch(streams=)`` then draws every stream's uniforms into
    #: one buffer and runs the kernel once; with ``None`` it runs the kernel
    #: once per stream.  A subclass that changes how the kernel draws must
    #: declare it again.
    uniform_width: int | None = None

    def __init__(self, world: GridWorld, graph: PolicyGraph, epsilon: float) -> None:
        self.world = world
        self.graph = graph
        self.epsilon = check_epsilon(epsilon)
        outside = [node for node in graph.nodes if node not in world]
        if outside:
            raise MechanismError(
                f"policy graph {graph.name!r} has nodes outside the world: {sorted(outside)[:5]}"
            )

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return type(self).__name__

    def is_exact(self, cell: int) -> bool:
        """Whether the policy discloses ``cell`` without perturbation."""
        return self.graph.is_disclosable(cell)

    def release(self, cell: int, rng=None) -> Release:
        """Release a (possibly perturbed) location for true cell ``cell``."""
        if cell not in self.graph:
            raise MechanismError(f"cell {cell} is not covered by policy {self.graph.name!r}")
        if self.is_exact(cell):
            return Release(
                point=self.world.coords(cell),
                exact=True,
                mechanism=self.name,
                epsilon=0.0,
            )
        point = self._perturb(cell, ensure_rng(rng))
        return Release(
            point=(float(point[0]), float(point[1])),
            exact=False,
            mechanism=self.name,
            epsilon=self.epsilon,
        )

    def pdf(self, point: Sequence[float], cell: int) -> float:
        """Density (or pmf) of releasing ``point`` when the truth is ``cell``.

        Undefined for disclosable cells (their release is a Dirac mass);
        callers must branch on :meth:`is_exact` first.
        """
        if cell not in self.graph:
            raise MechanismError(f"cell {cell} is not covered by policy {self.graph.name!r}")
        if self.is_exact(cell):
            raise MechanismError(
                f"cell {cell} is disclosable; its release distribution is a point mass"
            )
        return self._pdf(np.asarray(point, dtype=float), cell)

    def pdf_vector(self, point: Sequence[float], cells: Sequence[int]) -> np.ndarray:
        """``pdf(point | cell)`` for many candidate cells (0 for exact cells).

        The Bayesian adversary calls this per observed release; exact cells
        get likelihood 0 because a continuous released point almost surely
        differs from any disclosed cell centre.  This is a single-point view
        of :meth:`pdf_matrix`, so vectorized ``_pdf_batch`` overrides speed
        up every historical caller for free.
        """
        z = np.asarray(point, dtype=float).reshape(1, 2)
        return self.pdf_matrix(z, cells)[0]

    # ------------------------------------------------------------------
    # Batched interface
    # ------------------------------------------------------------------
    def release_batch(
        self,
        cells: Sequence[int],
        rng=None,
        streams: "tuple[Sequence[int], Sequence[int]] | None" = None,
    ) -> ReleaseBatch:
        """Release many (possibly perturbed) locations in one call.

        Semantically equivalent to ``[self.release(c, rng) for c in cells]``
        — including the consumed RNG stream, so a seeded batched run
        reproduces a seeded scalar run element-wise — but the noisy subset is
        drawn by :meth:`_perturb_batch`, which the first-party mechanisms
        vectorize.

        With ``streams=(seeds, counts)`` (instead of ``rng``) the rows form
        ``len(seeds)`` consecutive blocks: block ``i`` is the next
        ``counts[i]`` rows, and it draws from
        ``np.random.default_rng(seeds[i])`` exactly what
        ``release_batch(block_i, rng=seeds[i])`` would.  This is how a shard
        releases all its users, each on their own stream, in one call.
        Validation, the exact mask, the exact points and the epsilons run
        once over all rows; see :attr:`uniform_width` for the kernel and
        :func:`~repro.utils.rng.stream_uniforms` for how the streams are
        drawn.  Each seed must be a Python or numpy integer in
        ``[0, 2**64)`` and each count a non-negative integer (no bools,
        floats or NaN); otherwise :class:`~repro.errors.MechanismError`
        names the stream index and the value.  ``cells`` of a float or bool
        dtype raise :class:`~repro.errors.ValidationError` instead of being
        truncated to cell ids.
        """
        if streams is not None and rng is not None:
            raise MechanismError("release_batch takes rng or streams, not both")
        cell_arr = check_int_array("cells", cells)
        if cell_arr.ndim != 1:
            raise MechanismError(f"cells must be a flat sequence, got shape {cell_arr.shape}")
        n = len(cell_arr)
        covered, disclosed = self._coverage_masks()
        in_world = (cell_arr >= 0) & (cell_arr < self.world.n_cells)
        if not in_world.all():
            bad = cell_arr[~in_world]
            raise MechanismError(
                f"cell {int(bad[0])} is not covered by policy {self.graph.name!r}"
            )
        if not covered[cell_arr].all():
            bad = cell_arr[~covered[cell_arr]]
            raise MechanismError(
                f"cell {int(bad[0])} is not covered by policy {self.graph.name!r}"
            )
        exact = disclosed[cell_arr]
        points = np.empty((n, 2), dtype=float)
        epsilons = np.where(exact, 0.0, self.epsilon)
        noisy = None  # every row is noisy
        if exact.any():
            points[exact] = self.world.coords_array(cell_arr[exact])
            noisy = np.flatnonzero(~exact)
        if streams is not None:
            self._draw_streams(cell_arr, noisy, points, streams)
        elif n and (noisy is None or noisy.size):
            self._draw(cell_arr, noisy, points, ensure_rng(rng))
        return ReleaseBatch(
            points=points,
            exact=exact,
            epsilons=epsilons,
            cells=cell_arr,
            mechanism=self.name,
        )

    def _draw(self, cells, noisy, points, rng) -> None:
        """Fill ``points`` at the ``noisy`` rows (``None``: all) from ``rng``."""
        if noisy is None:
            points[...] = self._perturb_batch(cells, rng)
        else:
            points[noisy] = self._perturb_batch(cells[noisy], rng)

    def _draw_streams(self, cells, noisy, points, streams) -> None:
        """Fill ``points`` at the ``noisy`` rows, block ``i`` from ``seeds[i]``.

        Seeds and counts are checked first (:func:`~repro.utils.rng.seed_array`,
        :func:`~repro.utils.rng.count_array`); a bad one raises
        :class:`~repro.errors.MechanismError` naming its stream index and
        value.  With a declared :attr:`uniform_width`, every stream's
        uniforms come from one :func:`~repro.utils.rng.stream_uniforms`
        call into one buffer, and the kernel runs once over it.
        """
        seeds, counts = streams
        try:
            seeds, counts = seed_array(seeds), count_array(counts)
        except ValidationError as error:
            raise MechanismError(f"streams: {error}") from None
        if counts.shape != seeds.shape or counts.sum() != len(cells):
            raise MechanismError(
                f"streams must give one non-negative row count per seed, "
                f"summing to the {len(cells)} cells"
            )
        ends = np.cumsum(counts)
        # Each block's range of positions among the noisy rows.
        if noisy is None:
            lows, highs = ends - counts, ends
        else:
            lows, highs = np.searchsorted(noisy, ends - counts), np.searchsorted(noisy, ends)
        width = self.uniform_width
        if width is None:
            for seed, low, high in zip(seeds.tolist(), lows.tolist(), highs.tolist()):
                if high > low:
                    rows = slice(low, high) if noisy is None else noisy[low:high]
                    points[rows] = self._perturb_batch(cells[rows], np.random.default_rng(seed))
            return
        uniforms = np.empty((len(cells) if noisy is None else noisy.size, width))
        stream_uniforms(seeds, (highs - lows) * width, out=uniforms.reshape(-1))
        source = _DrawnUniforms(uniforms)
        if len(uniforms):
            self._draw(cells, noisy, points, source)
        if source.left:
            raise MechanismError(
                f"{self.name} declares uniform_width={width} but its kernel "
                f"left {source.left} of {uniforms.size} uniforms unread"
            )

    def pdf_matrix(
        self, points, cells: Sequence[int] | None = None, dtype=None
    ) -> np.ndarray:
        """``(m, n)`` matrix of ``pdf(point_i | cell_j)``.

        Follows :meth:`pdf_vector` semantics (not :meth:`pdf`'s): cells
        outside the policy and disclosable cells contribute likelihood 0
        instead of raising, which is exactly what Bayesian inference wants.
        ``cells`` defaults to the whole world; a float or bool dtype raises
        :class:`~repro.errors.ValidationError`.

        ``dtype`` selects the output precision (default float64).  The
        float32 adversary mode passes ``np.float32`` so the downstream
        GEMMs run single precision; the density itself is still evaluated
        in float64 and rounded once on store, keeping the relative error
        within one float32 ulp (~1.2e-7) per entry.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise MechanismError(f"points must have shape (m, 2), got {pts.shape}")
        if cells is None:
            cell_arr = np.arange(self.world.n_cells)
            valid = self._world_pdf_mask()
        else:
            cell_arr = check_int_array("cells", cells)
            mask = self._world_pdf_mask()
            in_world = (cell_arr >= 0) & (cell_arr < self.world.n_cells)
            valid = np.zeros(len(cell_arr), dtype=bool)
            valid[in_world] = mask[cell_arr[in_world]]
        out = np.zeros((len(pts), len(cell_arr)), dtype=dtype if dtype is not None else float)
        index = np.flatnonzero(valid)
        if index.size:
            out[:, index] = self._pdf_batch(pts, cell_arr[index])
        return out

    def _coverage_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached per-world-cell ``(covered, disclosed)`` boolean masks.

        Policy graphs are immutable after construction, so both masks are
        computed once *per (policy, world) pair* and shared by every
        mechanism instance built on that pair — they live next to the other
        per-pair construction caches on the graph (the P-LM delta cache,
        the P-PIM hull cache), so rebuilding a mechanism costs no mask
        recomputation.  ``disclosed`` goes through :meth:`is_exact`;
        mechanisms that *override* it (Geo-I never discloses) get an
        instance-level disclosed mask instead of polluting the shared
        cache.
        """
        cached = getattr(self, "_coverage_masks_cache", None)
        if cached is not None:
            return cached
        n = self.world.n_cells
        pair_cache = self.graph.__dict__.setdefault("_coverage_mask_cache", {})
        shared = pair_cache.get(self.world)
        if shared is None:
            covered = np.fromiter(
                (cell in self.graph for cell in range(n)), dtype=bool, count=n
            )
            graph_disclosed = np.fromiter(
                (covered[cell] and self.graph.is_disclosable(cell) for cell in range(n)),
                dtype=bool,
                count=n,
            )
            covered.setflags(write=False)
            graph_disclosed.setflags(write=False)
            shared = (covered, graph_disclosed)
            pair_cache[self.world] = shared
        covered, disclosed = shared
        if type(self).is_exact is not Mechanism.is_exact:
            disclosed = np.fromiter(
                (covered[cell] and self.is_exact(cell) for cell in range(n)),
                dtype=bool,
                count=n,
            )
            disclosed.setflags(write=False)
        cached = (covered, disclosed)
        self._coverage_masks_cache = cached
        return cached

    def _world_pdf_mask(self) -> np.ndarray:
        """Mask of world cells with a defined density (covered and noisy).

        Cached per instance — :meth:`pdf_matrix` is called once per
        adversary scoring round, and the mask never changes.
        """
        cached = getattr(self, "_world_pdf_mask_cache", None)
        if cached is None:
            covered, disclosed = self._coverage_masks()
            cached = covered & ~disclosed
            cached.setflags(write=False)
            self._world_pdf_mask_cache = cached
        return cached

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _perturb(self, cell: int, rng: np.random.Generator) -> np.ndarray:
        """Draw a noisy release for a non-disclosable cell."""

    @abc.abstractmethod
    def _pdf(self, point: np.ndarray, cell: int) -> float:
        """Release density at ``point`` for a non-disclosable ``cell``."""

    def _perturb_batch(self, cells: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw noisy releases for many non-disclosable cells: ``(n, 2)``.

        Generic fallback: a Python loop over :meth:`_perturb`.  Vectorized
        mechanisms override this (and usually delegate ``_perturb`` back to a
        singleton batch so scalar and batched runs share one RNG stream).
        """
        out = np.empty((len(cells), 2), dtype=float)
        for i, cell in enumerate(cells):
            out[i] = self._perturb(int(cell), rng)
        return out

    def _pdf_batch(self, points: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Density of each point under each non-disclosable cell: ``(m, n)``.

        Generic fallback: a Python double loop over :meth:`_pdf`.
        """
        out = np.empty((len(points), len(cells)), dtype=float)
        for j, cell in enumerate(cells):
            for i in range(len(points)):
                out[i, j] = self._pdf(points[i], int(cell))
        return out

    def __repr__(self) -> str:
        return (
            f"{self.name}(epsilon={self.epsilon}, policy={self.graph.name!r}, "
            f"world={self.world.width}x{self.world.height})"
        )
