"""Unit tests for the computational-geometry kernel."""

import math

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geo.geometry import (
    ConvexPolygon,
    convex_hull,
    isotropic_transform,
    knorm,
    sample_uniform_polygon,
)

SQUARE = [(-1, -1), (1, -1), (1, 1), (-1, 1)]


class TestConvexHull:
    def test_square_with_interior_points(self):
        pts = SQUARE + [(0, 0), (0.5, 0.5)]
        hull = convex_hull(pts)
        assert len(hull) == 4
        assert {tuple(v) for v in hull} == {(-1, -1), (1, -1), (1, 1), (-1, 1)}

    def test_hull_is_counter_clockwise(self):
        hull = convex_hull(SQUARE)
        area2 = 0.0
        for i in range(len(hull)):
            x1, y1 = hull[i]
            x2, y2 = hull[(i + 1) % len(hull)]
            area2 += x1 * y2 - x2 * y1
        assert area2 > 0

    def test_collinear_returns_endpoints(self):
        hull = convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)])
        assert len(hull) == 2
        assert {tuple(v) for v in hull} == {(0, 0), (3, 3)}

    def test_subnormal_offset_is_collinear(self):
        # (0, 1) and (tiny, 1) differ by a subnormal: the turn at the chain
        # junction rounds to zero, so the hull must not keep all three.
        points = [(0.0, 1.0), (2.2729409290749604e-295, 1.0), (-1.0, 0.0)]
        assert len(convex_hull(points)) == 2
        poly = ConvexPolygon.from_points(points)
        assert poly.area > 0

    def test_single_point(self):
        hull = convex_hull([(2, 3), (2, 3)])
        assert hull.shape == (1, 2)

    def test_empty_rejected(self):
        with pytest.raises(GeometryError):
            convex_hull([])

    def test_duplicates_removed(self):
        hull = convex_hull(SQUARE * 3)
        assert len(hull) == 4


class TestConvexPolygon:
    def test_area_of_square(self):
        poly = ConvexPolygon(np.array(SQUARE, dtype=float))
        assert poly.area == pytest.approx(4.0)

    def test_centroid_of_square(self):
        poly = ConvexPolygon(np.array(SQUARE, dtype=float))
        assert poly.centroid == pytest.approx([0.0, 0.0])

    def test_offset_triangle_centroid(self):
        poly = ConvexPolygon(np.array([(0, 0), (3, 0), (0, 3)], dtype=float))
        assert poly.centroid == pytest.approx([1.0, 1.0])
        assert poly.area == pytest.approx(4.5)

    def test_contains(self):
        poly = ConvexPolygon(np.array(SQUARE, dtype=float))
        assert poly.contains((0, 0))
        assert poly.contains((1, 1))  # boundary
        assert not poly.contains((1.01, 0))

    def test_covariance_of_square(self):
        # Uniform on [-1,1]^2 has covariance (1/3) I.
        poly = ConvexPolygon(np.array(SQUARE, dtype=float))
        assert np.allclose(poly.covariance(), np.eye(2) / 3.0, atol=1e-12)

    def test_support_function(self):
        poly = ConvexPolygon(np.array(SQUARE, dtype=float))
        assert poly.support((1, 0)) == pytest.approx(1.0)
        assert poly.support((1, 1)) == pytest.approx(2.0)

    def test_diameter(self):
        poly = ConvexPolygon(np.array(SQUARE, dtype=float))
        assert poly.diameter() == pytest.approx(2 * math.sqrt(2))

    def test_scale(self):
        poly = ConvexPolygon(np.array(SQUARE, dtype=float)).scale(2.0)
        assert poly.area == pytest.approx(16.0)
        with pytest.raises(GeometryError):
            poly.scale(0)

    def test_transform_area_scales_by_det(self):
        poly = ConvexPolygon(np.array(SQUARE, dtype=float))
        mat = np.array([[2.0, 0.5], [0.0, 1.0]])
        image = poly.transform(mat)
        assert image.area == pytest.approx(poly.area * abs(np.linalg.det(mat)))

    def test_transform_rejects_singular(self):
        poly = ConvexPolygon(np.array(SQUARE, dtype=float))
        with pytest.raises(GeometryError):
            poly.transform(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_needs_three_vertices(self):
        with pytest.raises(GeometryError):
            ConvexPolygon(np.array([(0, 0), (1, 1)], dtype=float))
        with pytest.raises(GeometryError):
            ConvexPolygon(np.array([(0, 0), (1, 1), (2, 2)], dtype=float))


class TestFromPoints:
    def test_full_dimensional_passthrough(self):
        poly = ConvexPolygon.from_points(SQUARE)
        assert poly.area == pytest.approx(4.0)

    def test_segment_fattened(self):
        poly = ConvexPolygon.from_points([(-1, 0), (1, 0)], min_width=1e-6)
        assert poly.area == pytest.approx(2 * 2e-6, rel=1e-3)
        assert poly.contains((0.5, 0))

    def test_point_fattened(self):
        poly = ConvexPolygon.from_points([(3, 3)], min_width=1e-6)
        assert poly.contains((3, 3))
        assert poly.area > 0


class TestGauge:
    def test_square_gauge_is_linf(self):
        poly = ConvexPolygon(np.array(SQUARE, dtype=float))
        assert poly.gauge((0.5, 0.25)) == pytest.approx(0.5)
        assert poly.gauge((2, -2)) == pytest.approx(2.0)
        assert poly.gauge((0, 0)) == 0.0

    def test_gauge_boundary_is_one(self):
        poly = ConvexPolygon(np.array(SQUARE, dtype=float))
        assert poly.gauge((1, 0.3)) == pytest.approx(1.0)

    def test_gauge_homogeneous(self):
        poly = ConvexPolygon(np.array([(2, 0), (0, 3), (-2, 0), (0, -3)], dtype=float))
        v = (0.7, -1.1)
        assert poly.gauge((1.4, -2.2)) == pytest.approx(2 * poly.gauge(v))

    def test_gauge_requires_origin_inside(self):
        poly = ConvexPolygon(np.array([(1, 1), (2, 1), (2, 2), (1, 2)], dtype=float))
        with pytest.raises(GeometryError):
            poly.gauge((1.5, 1.5))

    def test_knorm_alias(self):
        poly = ConvexPolygon(np.array(SQUARE, dtype=float))
        assert knorm((0.25, 0), poly) == poly.gauge((0.25, 0))


class TestSampling:
    def test_samples_inside(self):
        poly = ConvexPolygon(np.array([(2, 0), (0, 3), (-2, 0), (0, -3)], dtype=float))
        samples = poly.sample(rng=0, size=500)
        assert samples.shape == (500, 2)
        for point in samples:
            assert poly.contains(point, tol=1e-9)

    def test_single_sample_shape(self):
        poly = ConvexPolygon(np.array(SQUARE, dtype=float))
        assert poly.sample(rng=1).shape == (2,)

    def test_mean_approaches_centroid(self):
        poly = ConvexPolygon(np.array([(0, 0), (4, 0), (0, 4)], dtype=float))
        samples = poly.sample(rng=2, size=4000)
        assert np.allclose(samples.mean(axis=0), poly.centroid, atol=0.1)

    def test_functional_alias(self):
        poly = ConvexPolygon(np.array(SQUARE, dtype=float))
        pts = sample_uniform_polygon(3, poly, size=10)
        assert pts.shape == (10, 2)

    def test_deterministic_with_seed(self):
        poly = ConvexPolygon(np.array(SQUARE, dtype=float))
        assert np.array_equal(poly.sample(rng=5, size=8), poly.sample(rng=5, size=8))


class TestIsotropicTransform:
    def test_square_already_isotropic(self):
        poly = ConvexPolygon(np.array(SQUARE, dtype=float))
        transform = isotropic_transform(poly)
        singular = np.linalg.svd(transform, compute_uv=False)
        assert singular[0] == pytest.approx(singular[1])

    def test_elongated_body_normalised(self):
        stretched = ConvexPolygon(np.array([(-4, -1), (4, -1), (4, 1), (-4, 1)], dtype=float))
        transform = isotropic_transform(stretched)
        image = stretched.transform(transform)
        cov = image.covariance()
        assert cov[0, 0] == pytest.approx(cov[1, 1], rel=1e-6)
        assert abs(cov[0, 1]) < 1e-9
