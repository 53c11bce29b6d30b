"""2-D computational-geometry kernel for the Planar Isotropic Mechanism.

The policy-aware PIM needs, per connected component of the policy graph:

* the **sensitivity hull** — the convex hull of the (symmetrised) coordinate
  differences of 1-neighbor pairs,
* the **K-norm** (Minkowski gauge) of that hull, to evaluate densities,
* **uniform sampling** from the hull, to draw K-norm noise, and
* the **isotropic transform** of Xiao-Xiong's PIM, used for hull analytics.

Everything here is pure NumPy; polygons are small (tens of vertices), so the
O(m) half-plane formulas beat any general-purpose dependency.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.errors import GeometryError
from repro.utils.rng import ensure_rng

__all__ = [
    "convex_hull",
    "ConvexPolygon",
    "knorm",
    "sample_uniform_polygon",
    "isotropic_transform",
]


def convex_hull(points: Iterable[Sequence[float]]) -> np.ndarray:
    """Convex hull of planar points, counter-clockwise (Andrew monotone chain).

    Returns an ``(m, 2)`` array of hull vertices.  Collinear interior points
    are dropped.  Degenerate inputs (all points equal / collinear) return the
    1- or 2-point "hull"; callers needing a full-dimensional body should go
    through :meth:`ConvexPolygon.from_points`, which fattens such inputs.
    """
    pts = np.unique(np.asarray(list(points), dtype=float), axis=0)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise GeometryError(f"expected (n, 2) points, got shape {pts.shape}")
    if len(pts) == 0:
        raise GeometryError("convex hull of zero points")
    if len(pts) <= 2:
        return pts
    # Sort lexicographically, then build lower and upper chains.
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def _chain(sequence: np.ndarray) -> list[np.ndarray]:
        chain: list[np.ndarray] = []
        for p in sequence:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = _chain(pts)
    upper = _chain(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    # Each chain only tests the turns inside itself.  Where the chains meet,
    # rounding can leave a vertex whose turn evaluates to zero (e.g. a point
    # offset by a subnormal), which would give the polygon zero fan area.
    # Drop such vertices until every consecutive triple turns strictly left.
    pruned = True
    while pruned and len(hull) >= 3:
        pruned = False
        for i in range(len(hull)):
            if _cross(hull[i - 1], hull[i], hull[(i + 1) % len(hull)]) <= 0:
                del hull[i]
                pruned = True
                break
    if len(hull) < 3:  # all collinear
        return np.array([pts[0], pts[-1]])
    return np.array(hull)


def _cross(o: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """z-component of (a - o) x (b - o)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


class ConvexPolygon:
    """An immutable convex polygon with origin-centred gauge support.

    Vertices are stored counter-clockwise.  The polygon caches its half-plane
    representation ``{x : n_i . x <= b_i}``, area, centroid and the covariance
    of the uniform distribution over its interior — everything the K-norm
    mechanism touches per sample.
    """

    def __init__(self, vertices: np.ndarray) -> None:
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
            raise GeometryError(f"a polygon needs >= 3 vertices, got shape {verts.shape}")
        hull = convex_hull(verts)
        if len(hull) < 3:
            raise GeometryError("vertices are collinear; use ConvexPolygon.from_points")
        self._vertices = hull
        self._vertices.setflags(write=False)
        self._normals, self._offsets = self._halfplanes(hull)
        self._area, self._centroid, self._second_moment = self._moments(hull)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_points(cls, points: Iterable[Sequence[float]], min_width: float = 1e-9) -> "ConvexPolygon":
        """Full-dimensional hull of ``points``, fattening degenerate input.

        Sensitivity hulls built from a path of collinear locations are
        segments; the K-norm mechanism still needs a 2-D body to sample from,
        so rank-deficient hulls are inflated to a sliver of half-width
        ``min_width`` orthogonal to their span (a measure-zero perturbation of
        the mechanism, documented in DESIGN.md).
        """
        hull = convex_hull(points)
        if len(hull) >= 3:
            try:
                poly = cls(hull)
            except GeometryError:
                poly = None
            if poly is not None:
                # Reject slivers: a uniform body with covariance eigenvalue
                # lambda has half-width sqrt(3 * lambda) along that axis.
                eigenvalues = np.linalg.eigvalsh(poly.covariance())
                if math.sqrt(max(3.0 * eigenvalues[0], 0.0)) >= min_width:
                    return poly
        if len(hull) == 1:
            center = hull[0]
            offsets = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float) * min_width
            return cls(center + offsets)
        # Segment (or sliver): extrude orthogonally to the principal axis.
        pts = np.asarray(hull, dtype=float)
        centred = pts - pts.mean(axis=0)
        _, _, rotation = np.linalg.svd(centred, full_matrices=False)
        direction = rotation[0]
        projections = centred @ direction
        a = pts.mean(axis=0) + projections.min() * direction
        b = pts.mean(axis=0) + projections.max() * direction
        length = float(np.hypot(*(b - a)))
        if length == 0:
            raise GeometryError("degenerate segment in from_points")
        normal = np.array([-direction[1], direction[0]]) * min_width
        return cls(np.array([a - normal, b - normal, b + normal, a + normal]))

    @staticmethod
    def _halfplanes(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nxt = np.roll(verts, -1, axis=0)
        edges = nxt - verts
        # Outward normal of a CCW polygon is the edge rotated clockwise.
        normals = np.column_stack((edges[:, 1], -edges[:, 0]))
        lengths = np.hypot(normals[:, 0], normals[:, 1])
        if np.any(lengths == 0):
            raise GeometryError("zero-length edge in polygon")
        normals = normals / lengths[:, None]
        offsets = np.einsum("ij,ij->i", normals, verts)
        return normals, offsets

    @staticmethod
    def _moments(verts: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """Area, centroid and raw second moment via fan triangulation."""
        anchor = verts[0]
        total_area = 0.0
        weighted_centroid = np.zeros(2)
        second = np.zeros((2, 2))
        for i in range(1, len(verts) - 1):
            tri = (anchor, verts[i], verts[i + 1])
            area = 0.5 * abs(_cross(tri[0], tri[1], tri[2]))
            if area == 0:
                continue
            total_area += area
            tri_sum = tri[0] + tri[1] + tri[2]
            weighted_centroid += area * tri_sum / 3.0
            acc = np.outer(tri[0], tri[0]) + np.outer(tri[1], tri[1]) + np.outer(tri[2], tri[2])
            second += (area / 12.0) * (acc + np.outer(tri_sum, tri_sum))
        if total_area <= 0:
            raise GeometryError("polygon has zero area")
        return total_area, weighted_centroid / total_area, second

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> np.ndarray:
        """``(m, 2)`` counter-clockwise vertex array (read-only view)."""
        return self._vertices

    @property
    def area(self) -> float:
        """Area of the polygon."""
        return self._area

    @property
    def centroid(self) -> np.ndarray:
        """Centroid of the uniform distribution over the polygon."""
        return self._centroid.copy()

    def covariance(self) -> np.ndarray:
        """Covariance of the uniform distribution over the polygon."""
        mean = self._centroid
        return self._second_moment / self._area - np.outer(mean, mean)

    def contains(self, point: Sequence[float], tol: float = 1e-9) -> bool:
        """Whether ``point`` lies inside (or on the boundary of) the polygon."""
        p = np.asarray(point, dtype=float)
        return bool(np.all(self._normals @ p <= self._offsets + tol))

    def support(self, direction: Sequence[float]) -> float:
        """Support function ``max_{x in K} direction . x``."""
        d = np.asarray(direction, dtype=float)
        return float(np.max(self._vertices @ d))

    def diameter(self) -> float:
        """Maximum distance between two vertices (hull diameter)."""
        verts = self._vertices
        diff = verts[:, None, :] - verts[None, :, :]
        return float(np.sqrt((diff**2).sum(axis=2)).max())

    def scale(self, factor: float) -> "ConvexPolygon":
        """Polygon scaled about the origin by ``factor`` (> 0)."""
        if factor <= 0:
            raise GeometryError(f"scale factor must be > 0, got {factor}")
        return ConvexPolygon(self._vertices * factor)

    def transform(self, matrix: np.ndarray) -> "ConvexPolygon":
        """Image of the polygon under an invertible linear map."""
        mat = np.asarray(matrix, dtype=float)
        if mat.shape != (2, 2):
            raise GeometryError(f"transform expects a 2x2 matrix, got {mat.shape}")
        if abs(np.linalg.det(mat)) < 1e-15:
            raise GeometryError("transform matrix is singular")
        return ConvexPolygon(self._vertices @ mat.T)

    def gauge(self, point: Sequence[float]) -> float:
        """Minkowski gauge ``min {r >= 0 : point in r*K}``.

        Requires the origin strictly inside the polygon (always true for
        symmetrised sensitivity hulls).  For a half-plane representation with
        positive offsets the gauge is ``max_i (n_i . p) / b_i``.
        """
        if np.any(self._offsets <= 0):
            raise GeometryError("gauge requires the origin strictly inside the polygon")
        p = np.asarray(point, dtype=float)
        ratios = (self._normals @ p) / self._offsets
        return float(max(np.max(ratios), 0.0))

    def gauge_many(self, points) -> np.ndarray:
        """Vectorized :meth:`gauge` over an array of shape ``(..., 2)``."""
        if np.any(self._offsets <= 0):
            raise GeometryError("gauge requires the origin strictly inside the polygon")
        pts = np.asarray(points, dtype=float)
        ratios = (pts @ self._normals.T) / self._offsets
        return np.maximum(ratios.max(axis=-1), 0.0)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _triangulation(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Cached fan triangulation: vertex arrays ``(a, b, c)`` plus the
        cumulative area weights used for inverse-CDF triangle selection."""
        cached = getattr(self, "_tri_cache", None)
        if cached is None:
            verts = self._vertices
            a = np.repeat(verts[0][None, :], len(verts) - 2, axis=0)
            b = verts[1:-1]
            c = verts[2:]
            areas = np.abs(
                (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
            ) * 0.5
            cumulative = np.cumsum(areas / areas.sum())
            cumulative[-1] = 1.0  # guard against float drift at the top end
            cached = (a, b, c, cumulative)
            self._tri_cache = cached
        return cached

    def sample_from_uniforms(
        self, u_pick: np.ndarray, u_edge: np.ndarray, u_interior: np.ndarray
    ) -> np.ndarray:
        """Uniform samples driven by caller-supplied uniforms: ``(n, 2)``.

        Maps three independent ``U[0, 1)`` columns through inverse-CDF
        triangle selection plus the affine square-root warp.  Taking the
        uniforms as arguments (rather than an ``rng``) is what lets the
        batched K-norm sampler draw one ``rng.random((n, k))`` block whose
        row order matches sequential scalar sampling exactly.
        """
        a, b, c, cumulative = self._triangulation()
        picks = np.searchsorted(cumulative, np.asarray(u_pick, dtype=float), side="right")
        picks = np.minimum(picks, len(cumulative) - 1)
        s = np.sqrt(np.asarray(u_edge, dtype=float))[:, None]
        t = np.asarray(u_interior, dtype=float)[:, None]
        return (1 - s) * a[picks] + s * (1 - t) * b[picks] + s * t * c[picks]

    def sample(self, rng=None, size: int | None = None) -> np.ndarray:
        """Uniform sample(s) from the polygon interior.

        Fan-triangulates once, picks triangles proportionally to area, then
        uses the standard affine square-root warp inside each triangle.
        Returns shape ``(2,)`` when ``size`` is None, else ``(size, 2)``.
        """
        generator = ensure_rng(rng)
        count = 1 if size is None else int(size)
        u = generator.random((count, 3))
        out = self.sample_from_uniforms(u[:, 0], u[:, 1], u[:, 2])
        return out[0] if size is None else out

    def __repr__(self) -> str:
        return f"ConvexPolygon(n_vertices={len(self._vertices)}, area={self._area:.4g})"


def knorm(point: Sequence[float], hull: ConvexPolygon) -> float:
    """The K-norm ``‖point‖_K`` induced by a symmetric convex body ``hull``."""
    return hull.gauge(point)


def sample_uniform_polygon(rng, polygon: ConvexPolygon, size: int | None = None) -> np.ndarray:
    """Module-level alias for :meth:`ConvexPolygon.sample` (functional style)."""
    return polygon.sample(rng=rng, size=size)


def isotropic_transform(polygon: ConvexPolygon) -> np.ndarray:
    """Linear map ``T`` putting ``polygon`` into isotropic position.

    ``T = Sigma^{-1/2}`` where ``Sigma`` is the covariance of the uniform
    distribution over the polygon, so the transformed body has identity
    covariance up to scale.  Xiao-Xiong's PIM applies the K-norm mechanism in
    this frame; because the K-norm mechanism is affine-equivariant the release
    distribution is unchanged, so the library uses ``T`` for analytics (hull
    eccentricity reporting) rather than inside the sampler.
    """
    cov = polygon.covariance()
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    if np.any(eigenvalues <= 0):
        raise GeometryError("polygon covariance is singular; cannot make isotropic")
    inv_sqrt = eigenvectors @ np.diag(1.0 / np.sqrt(eigenvalues)) @ eigenvectors.T
    return inv_sqrt
