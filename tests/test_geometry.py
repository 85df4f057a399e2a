import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from easerl.geometry import (
    ConvexPolygon,
    Point2,
    RegionSet,
    bisect,
    contains,
    dilate,
    intersect_clip,
    segment_intersects,
)


def random_convex(rng, n_max=8):
    """Random strictly convex polygon: sorted angles, varied radii."""
    n = rng.integers(3, n_max + 1)
    angles = np.sort(rng.uniform(0, 2 * math.pi, n))
    # spread angles apart so consecutive vertices are never collinear
    while np.min(np.diff(np.concatenate([angles, [angles[0] + 2 * math.pi]]))) < 0.3:
        angles = np.sort(rng.uniform(0, 2 * math.pi, n))
    r = rng.uniform(0.8, 3.0)
    cx, cy = rng.uniform(-4, 4, 2)
    pts = [(cx + r * math.cos(a), cy + r * math.sin(a)) for a in angles]
    return ConvexPolygon.from_xy(pts)


def area(poly: ConvexPolygon) -> float:
    """Shoelace area of a polygon (positive for CCW vertices)."""
    v = poly.vertices
    return 0.5 * sum(a.x * b.y - b.x * a.y for a, b in zip(v, v[1:] + v[:1]))


def ray_cast_contains(poly: ConvexPolygon, x: float, y: float) -> bool:
    """Independent even-odd ray casting oracle (horizontal ray to +x)."""
    verts = poly.vertices
    n = len(verts)
    inside = False
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            x_hit = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x_hit > x:
                inside = not inside
    return inside


def edge_distance(poly: ConvexPolygon, x: float, y: float) -> float:
    verts = poly.vertices
    n = len(verts)
    best = math.inf
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        dx, dy = x2 - x1, y2 - y1
        t = max(0.0, min(1.0, ((x - x1) * dx + (y - y1) * dy) / (dx * dx + dy * dy)))
        best = min(best, math.hypot(x - (x1 + t * dx), y - (y1 + t * dy)))
    return best


class TestConvexPolygon:
    def test_rejects_clockwise_ring(self):
        with pytest.raises(ValueError):
            ConvexPolygon.from_xy([(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)])

    def test_rejects_nonconvex_ring(self):
        with pytest.raises(ValueError):
            ConvexPolygon.from_xy([(0.0, 0.0), (2.0, 0.0), (1.0, 0.2), (1.0, 2.0)])

    def test_from_xy_drops_duplicates_and_collinear(self):
        poly = ConvexPolygon.from_xy(
            [(0, 0), (1, 0), (2, 0), (2, 2), (2, 2), (0, 2)]
        )
        assert len(poly.vertices) == 4
        assert area(poly) == pytest.approx(4.0)

    def test_rectangle_area_centroid_bbox(self):
        rect = ConvexPolygon.rectangle(1.0, -2.0, 4.0, 2.0)
        assert area(rect) == pytest.approx(8.0)
        c = rect.centroid()
        assert (c.x, c.y) == pytest.approx((1.0, -2.0))
        assert rect.bbox() == pytest.approx((-1.0, -3.0, 3.0, -1.0))

    def test_contains_against_ray_cast_oracle(self):
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(40):
            poly = random_convex(rng)
            x0, y0, x1, y1 = poly.bbox()
            xs = rng.uniform(x0 - 1, x1 + 1, 300)
            ys = rng.uniform(y0 - 1, y1 + 1, 300)
            for x, y in zip(xs, ys):
                if edge_distance(poly, x, y) < 1e-6:
                    continue  # boundary points differ legitimately
                assert poly.contains_point(x, y) == ray_cast_contains(poly, x, y)
                checked += 1
        assert checked > 10000

    def test_contains_closed_on_boundary(self):
        rect = ConvexPolygon.rectangle(0.0, 0.0, 2.0, 2.0)
        assert rect.contains_point(1.0, 0.0)
        assert rect.contains_point(1.0, 1.0)
        assert not rect.contains_point(1.0 + 1e-6, 0.0)

    def test_distance_to_point(self):
        rect = ConvexPolygon.rectangle(0.0, 0.0, 2.0, 2.0)
        assert rect.distance_to_point(0.0, 0.0) == pytest.approx(0.0)
        assert rect.distance_to_point(3.0, 0.0) == pytest.approx(2.0)
        assert rect.distance_to_point(4.0, 5.0) == pytest.approx(math.hypot(3.0, 4.0))


class TestSegmentIntersects:
    def test_dense_sampling_oracle(self):
        rng = np.random.default_rng(1)
        hits = misses = 0
        for _ in range(60):
            poly = random_convex(rng)
            region = RegionSet((poly,), 1.0)
            p = rng.uniform(-6, 6, 2)
            q = rng.uniform(-6, 6, 2)
            ts = np.linspace(0, 1, 2001)
            samples = p[None, :] + ts[:, None] * (q - p)[None, :]
            sampled_hit = any(poly.contains_point(sx, sy) for sx, sy in samples)
            got = segment_intersects(region, Point2(*p), Point2(*q))
            if sampled_hit:
                # dense sampling found interior points; clipping must agree
                assert got
                hits += 1
            else:
                # clipping may still detect grazing touches sampling missed
                if not got:
                    misses += 1
        assert hits > 5 and misses > 5

    def test_touching_endpoint_counts(self):
        rect = ConvexPolygon.rectangle(0.0, 0.0, 2.0, 2.0)
        region = RegionSet((rect,), 1.0)
        assert segment_intersects(region, Point2(1.0, 0.0), Point2(3.0, 0.0))
        assert segment_intersects(region, Point2(1.0, 1.0), Point2(5.0, 5.0))
        assert not segment_intersects(region, Point2(1.1, 1.1), Point2(5.0, 5.0))

    def test_segment_through_is_detected(self):
        rect = ConvexPolygon.rectangle(0.0, 0.0, 2.0, 2.0)
        region = RegionSet((rect,), 1.0)
        assert segment_intersects(region, Point2(-5.0, 0.0), Point2(5.0, 0.0))
        assert not segment_intersects(region, Point2(-5.0, 2.0), Point2(5.0, 2.0))


class TestBisect:
    def test_unit_square_halves(self):
        square = ConvexPolygon.rectangle(0.5, 0.5, 1.0, 1.0)
        low, high = bisect(square)
        assert area(low) == pytest.approx(0.5)
        assert area(high) == pytest.approx(0.5)
        # longest axis tie broken toward x: halves split left/right
        assert low.bbox()[2] == pytest.approx(0.5)
        assert high.bbox()[0] == pytest.approx(0.5)

    def test_wide_rectangle_cut_areas(self):
        # 4x1 rectangle: split across x into two 2x1 pieces
        rect = ConvexPolygon.rectangle(0.0, 0.0, 4.0, 1.0)
        low, high = bisect(rect)
        assert area(low) == pytest.approx(2.0)
        assert area(high) == pytest.approx(2.0)

    def test_triangle_area_split(self):
        tri = ConvexPolygon.from_xy([(0, 0), (4, 0), (0, 2)])
        low, high = bisect(tri)
        # split at x=2: left trapezoid 3, right triangle 1
        assert area(low) == pytest.approx(3.0)
        assert area(high) == pytest.approx(1.0)
        assert area(low) + area(high) == pytest.approx(area(tri))

    def test_degenerate_ring_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ConvexPolygon.from_xy([(0, 0), (1e-10, 0), (1e-10, 1e-10)])

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, seed):
        rng = np.random.default_rng(seed)
        poly = random_convex(rng)
        low, high = bisect(poly)
        assert area(low) + area(high) == pytest.approx(area(poly), rel=1e-9)
        x0, y0, x1, y1 = poly.bbox()
        pts = rng.uniform([x0, y0], [x1, y1], size=(200, 2))
        for x, y in pts:
            if edge_distance(poly, x, y) < 1e-6:
                continue
            inside = poly.contains_point(x, y)
            in_low = low.contains_point(x, y)
            in_high = high.contains_point(x, y)
            if inside:
                assert in_low or in_high
            else:
                assert not (in_low or in_high)


class TestDilate:
    def test_conservative_superset_of_minkowski_samples(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            poly = random_convex(rng)
            r = rng.uniform(0.1, 1.0)
            grown = dilate(RegionSet((poly,), 1.0), r).parts[0]
            # sample points at distance <= r from the polygon
            x0, y0, x1, y1 = poly.bbox()
            pts = rng.uniform([x0 - r, y0 - r], [x1 + r, y1 + r], size=(400, 2))
            for x, y in pts:
                d = edge_distance(poly, x, y)
                if poly.contains_point(x, y) or d <= r - 1e-9:
                    assert grown.contains_point(x, y)

    @given(st.integers(0, 2**32 - 1), st.floats(0.01, 3.0))
    @settings(max_examples=150, deadline=None)
    def test_circumscribes_the_exact_dilation(self, seed, r):
        """On any convex part, clipped ones included (they mix vertices
        that turn by very different angles), dilate keeps a convex ring
        that contains every point within r of the part and no point
        farther than r / cos(pi/16): the ring is convex, so checking its
        vertices bounds it."""
        rng = np.random.default_rng(seed)
        poly = random_convex(rng)
        if rng.random() < 0.5:
            x0, y0, x1, y1 = poly.bbox()
            w, h = rng.uniform(0.2, 1.0, 2) * (x1 - x0, y1 - y0)
            cx, cy = rng.uniform((x0, y0), (x1, y1))
            box = ConvexPolygon.rectangle(cx, cy, w, h)
            clipped = intersect_clip(RegionSet((poly,), 1.0), box).parts
            if clipped:
                poly = clipped[0]
        grown = dilate(RegionSet((poly,), 1.0), r).parts[0]
        x0, y0, x1, y1 = poly.bbox()
        pts = rng.uniform([x0 - r, y0 - r], [x1 + r, y1 + r], size=(300, 2))
        for x, y in pts:
            if poly.distance_to_point(x, y) <= r - 1e-9:
                assert grown.contains_point(x, y)
        far = r / math.cos(math.pi / 16)
        for v in grown.vertices:
            assert poly.distance_to_point(v.x, v.y) <= far * (1 + 1e-9)

    def test_area_at_least_exact_minkowski(self):
        rect = ConvexPolygon.rectangle(0.0, 0.0, 2.0, 2.0)
        r = 0.5
        grown = dilate(RegionSet((rect,), 1.0), r).parts[0]
        exact = 4.0 + 8.0 * r + math.pi * r * r
        assert area(grown) >= exact - 1e-9
        # and not wildly larger than the exact hull
        assert area(grown) <= exact * 1.05

    def test_penalty_preserved(self):
        rect = ConvexPolygon.rectangle(0.0, 0.0, 2.0, 2.0)
        region = RegionSet((rect,), 123.0)
        assert dilate(region, 0.3).penalty == 123.0


class TestIntersectClip:
    def test_clip_to_window(self):
        rect = ConvexPolygon.rectangle(0.0, 0.0, 4.0, 4.0)
        window = ConvexPolygon.rectangle(1.0, 1.0, 2.0, 2.0)
        clipped = intersect_clip(RegionSet((rect,), 1.0), window)
        assert len(clipped.parts) == 1
        assert area(clipped.parts[0]) == pytest.approx(4.0)
        assert clipped.parts[0].bbox() == pytest.approx((0.0, 0.0, 2.0, 2.0))

    def test_disjoint_window_drops_part(self):
        rect = ConvexPolygon.rectangle(0.0, 0.0, 2.0, 2.0)
        window = ConvexPolygon.rectangle(10.0, 10.0, 2.0, 2.0)
        clipped = intersect_clip(RegionSet((rect,), 1.0), window)
        assert clipped.parts == ()


class TestRegionSet:
    def test_contains_union(self):
        a = ConvexPolygon.rectangle(-3.0, 0.0, 2.0, 2.0)
        b = ConvexPolygon.rectangle(3.0, 0.0, 2.0, 2.0)
        region = RegionSet((a, b), 1.0)
        assert contains(region, Point2(-3.0, 0.0))
        assert contains(region, Point2(3.0, 0.0))
        assert not contains(region, Point2(0.0, 0.0))

    def test_requires_positive_penalty(self):
        with pytest.raises(ValueError):
            RegionSet((ConvexPolygon.rectangle(0, 0, 1, 1),), 0.0)

    def test_bbox_covers_parts(self):
        a = ConvexPolygon.rectangle(-3.0, 0.0, 2.0, 2.0)
        b = ConvexPolygon.rectangle(3.0, 1.0, 2.0, 4.0)
        region = RegionSet((a, b), 1.0)
        assert region.bbox() == pytest.approx((-4.0, -1.0, 4.0, 3.0))
