"""The edge table against the per-polygon formulas it replaced.

`geometry.EdgeTable` tests every part of every set in one array pass.  The
references below test one polygon at a time with the same expressions: the
per-edge cross value reduced with `all`, a Liang-Barsky clip per part, and
one downward ray per part for the crossing parity.  Every predicate built on
the table must agree with them exactly, on the boundary and at +-EPS too.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from easerl.envs import RewardSpec, RowRewards, nav1_make
from easerl.geometry import (
    EPS,
    ConvexPolygon,
    Point2,
    RegionSet,
    contains,
    intersect_clip,
    segment_intersects,
)
from easerl.homotopy import Trajectory, collides, parity_bits

ENV = nav1_make(7, "left")


def ref_cross(poly: ConvexPolygon, x, y) -> np.ndarray:
    """The cross value of every edge p -> q of one polygon, along a new last axis."""
    p = np.array([(a.x, a.y) for a in poly.vertices])
    d = np.roll(p, -1, axis=0) - p
    x = np.asarray(x, dtype=float)[..., None]
    y = np.asarray(y, dtype=float)[..., None]
    return d[:, 0] * (y - p[:, 1]) - d[:, 1] * (x - p[:, 0])


def ref_contains_point(poly: ConvexPolygon, x, y):
    return (ref_cross(poly, x, y) >= -EPS).all(axis=-1)


def ref_contains(region: RegionSet, x, y):
    inside = np.zeros(np.shape(x), dtype=bool)
    for part in region.parts:
        inside = inside | ref_contains_point(part, x, y)
    return inside


def ref_segment_hits_polygon(poly: ConvexPolygon, ax, ay, bx, by):
    da = ref_cross(poly, ax, ay) + EPS
    db = ref_cross(poly, bx, by) + EPS
    enter = da < 0.0
    leave = ~enter & (db < 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = da / (da - db)
    lo = np.where(enter, t, 0.0).max(axis=-1)
    hi = np.where(leave, t, 1.0).min(axis=-1)
    return ~(enter & (db < 0.0)).any(axis=-1) & (lo <= hi)


def ref_segment_intersects(region: RegionSet, ax, ay, bx, by):
    hit = np.zeros(np.shape(ax), dtype=bool)
    for part in region.parts:
        hit = hit | ref_segment_hits_polygon(part, ax, ay, bx, by)
    return hit


def ref_ray_parity(xs, ys, cx, cy) -> int:
    left = xs < cx
    i = np.nonzero(left[:-1] != left[1:])[0]
    t = (cx - xs[i]) / (xs[i + 1] - xs[i])
    y_hit = ys[i] + t * (ys[i + 1] - ys[i])
    return int(np.count_nonzero(y_hit < cy)) & 1


def ref_parity_bits(traj: Trajectory, region: RegionSet, start: Point2, goal: Point2):
    xs = np.concatenate(([start.x], traj.states[:, 0], [goal.x]))
    ys = np.concatenate(([start.y], traj.states[:, 1], [goal.y]))
    return tuple(ref_ray_parity(xs, ys, *part.centroid()) for part in region.parts)


def random_part(rng) -> ConvexPolygon:
    """A strictly convex polygon: an axis-aligned rectangle on a half-unit
    grid (edges at exact coordinates), or points on a circle."""
    if rng.random() < 0.4:
        cx, cy = rng.integers(-10, 11, 2) / 2.0
        w, h = rng.integers(1, 9, 2) / 2.0
        return ConvexPolygon.rectangle(cx, cy, w, h)
    n = int(rng.integers(3, 8))
    angles = np.sort(rng.uniform(0, 2 * math.pi, n))
    while np.min(np.diff(np.r_[angles, angles[0] + 2 * math.pi])) < 0.3:
        angles = np.sort(rng.uniform(0, 2 * math.pi, n))
    r = rng.uniform(0.5, 3.0)
    cx, cy = rng.uniform(-5, 5, 2)
    return ConvexPolygon.from_xy([(cx + r * math.cos(a), cy + r * math.sin(a)) for a in angles])


def random_region(rng) -> RegionSet:
    """A region of 0 to 3 parts; no parts comes from a disjoint clip."""
    region = RegionSet(tuple(random_part(rng) for _ in range(rng.integers(1, 4))), 1000.0)
    if rng.random() < 0.2:
        return intersect_clip(region, ConvexPolygon.rectangle(50.0, 50.0, 1.0, 1.0))
    return region


def probe_points(rng, regions, n_random=40) -> np.ndarray:
    """(N, 2) points: random ones, every vertex, edge points, and each of
    those moved by +-EPS and +-2 EPS along each axis."""
    pts = [rng.uniform(-9.0, 11.0, (n_random, 2))]
    for poly in [ENV.goal_poly] + [p for r in regions for p in r.parts]:
        v = np.array([(a.x, a.y) for a in poly.vertices])
        w = np.roll(v, -1, axis=0)
        t = rng.random((len(v), 1))
        pts += [v, 0.5 * (v + w), v + t * (w - v)]
    base = np.concatenate(pts)
    moved = [base]
    for step in (EPS, -EPS, 2 * EPS, -2 * EPS):
        for axis in (0, 1):
            m = base.copy()
            m[:, axis] += step
            moved.append(m)
    return np.concatenate(moved)


def assert_same(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_contains_and_segments_match_per_part_formulas(seed):
    rng = np.random.default_rng(seed)
    region = random_region(rng)
    pts = probe_points(rng, [region])
    x, y = pts[:, 0], pts[:, 1]
    assert_same(contains(region, pts), ref_contains(region, x, y))
    assert_same(contains(region, pts.reshape(-1, 3, 2)),
                ref_contains(region, x.reshape(-1, 3), y.reshape(-1, 3)))
    for part in region.parts:
        assert_same(part.contains_point(x, y), ref_contains_point(part, x, y))
    b = pts[rng.permutation(len(pts))]
    want = ref_segment_intersects(region, x, y, b[:, 0], b[:, 1])
    assert_same(segment_intersects(region, pts, b), want)
    # zero-length segments are points
    assert_same(segment_intersects(region, pts, pts), ref_contains(region, x, y))
    for k in rng.choice(len(pts), 8, replace=False):
        p, q = Point2(*pts[k]), Point2(*b[k])
        assert contains(region, p) == ref_contains(region, p.x, p.y)
        assert segment_intersects(region, p, q) == want[k]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_collides_and_parity_bits_match_per_part_formulas(seed):
    rng = np.random.default_rng(seed)
    region = random_region(rng)
    pts = probe_points(rng, [region], n_random=10)
    n = int(rng.integers(2, 40))
    walk = pts[rng.choice(len(pts), n)]
    if rng.random() < 0.5:  # a smooth path from below to above the field
        walk = np.cumsum(rng.normal(0.0, 0.7, (n, 2)), axis=0) + (rng.uniform(-6, 6), -8.0)
    traj = Trajectory(walk)
    want = bool(ref_segment_intersects(region, *walk[:-1].T, *walk[1:].T).any())
    assert collides(traj, region) is want
    start, goal = ENV.anchors()
    assert parity_bits(traj, region, start, goal) == ref_parity_bits(traj, region, start, goal)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_row_rewards_membership_matches_per_part_formulas(seed):
    rng = np.random.default_rng(seed)
    regions = [random_region(rng) for _ in range(3)]
    pts = probe_points(rng, regions, n_random=20)
    rows = 6
    pts = pts[: len(pts) // rows * rows]
    xy = pts.T.reshape(2, -1, rows)  # (2, T, B)
    specs = [RewardSpec(regions[i], 1.0) for i in rng.integers(0, 3, rows)]
    for spec_arg, spec_of_row in ((specs, specs), (specs[0], [specs[0]] * rows)):
        table = RowRewards.of(ENV, spec_arg)
        want_goal = ref_contains_point(ENV.goal_poly, xy[0], xy[1])
        want_member = np.stack(
            [ref_contains(s.region, xy[0][:, b], xy[1][:, b]) for b, s in enumerate(spec_of_row)],
            axis=-1,
        )
        for sl in (np.s_[:, :], np.s_[:, 0]):  # (2, T, B) and (2, B)
            goal, member = table.membership(xy[sl])
            assert_same(goal, want_goal[sl[1:]])
            assert_same(member, want_member[sl[1:]])
            assert_same(table.in_goal(xy[sl]), want_goal[sl[1:]])
    one = RowRewards.of(ENV, specs[0])
    for p in pts[:10]:  # one point, shape (2,)
        goal, member = one.membership(p)
        assert goal == ref_contains_point(ENV.goal_poly, *p)
        assert member == ref_contains(specs[0].region, *p)
