import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from easerl.errors import CollidingTrajectory, LengthMismatch, UnequalSupport
from easerl.geometry import ConvexPolygon, Point2, RegionSet, dilate, segment_intersects
from easerl.homotopy import (
    EmpiricalDistribution,
    Trajectory,
    bottleneck_matching,
    collides,
    divides,
    parity_bits,
    resample,
    same_class,
    signature,
    traj_distance,
    trajectory_from_csv,
    trajectory_to_csv,
    _sup_distances,
    w_infinity_matching,
)
from easerl.runner import read_trajectory
from test_edge_table import ENV, probe_points, random_region

BARRIER = RegionSet((ConvexPolygon.rectangle(0.0, 0.0, 5.0, 2.0),), 1000.0)
START = Point2(0.0, -8.0)
GOAL = Point2(0.0, 9.0)


def traj(pts) -> Trajectory:
    return Trajectory(np.array(pts, dtype=float))


LEFT = traj([(0, -8), (-4, -4), (-4, 4), (0, 9)])
RIGHT = traj([(0, -8), (4, -4), (4, 4), (0, 9)])
THROUGH = traj([(0, -8), (0, 9)])


# ---------------------------------------------------------------- oracle ---
# Deformation oracle: two non-colliding paths with shared endpoints are in
# the same class iff the closed loop (path A + reversed path B) does not
# enclose any barrier part.  Enclosure is decided on a fine grid: rasterize
# both paths as walls (supercover: every cell a segment touches), then BFS
# from the barrier part's centroid cell; reaching the grid border means the
# barrier is not enclosed.


def _supercover_cells(p, q, lo, cell):
    x0 = (p[0] - lo[0]) / cell
    y0 = (p[1] - lo[1]) / cell
    x1 = (q[0] - lo[0]) / cell
    y1 = (q[1] - lo[1]) / cell
    n = int(math.ceil(max(abs(x1 - x0), abs(y1 - y0)))) * 3 + 1
    cells = set()
    for t in np.linspace(0.0, 1.0, n + 1):
        cells.add((int(x0 + t * (x1 - x0)), int(y0 + t * (y1 - y0))))
    return cells


def loop_encloses_barrier(t1: Trajectory, t2: Trajectory, part, start, goal) -> bool:
    pts1 = [(start.x, start.y)] + [tuple(p) for p in t1.states] + [(goal.x, goal.y)]
    pts2 = [(start.x, start.y)] + [tuple(p) for p in t2.states] + [(goal.x, goal.y)]
    xs = [p[0] for p in pts1 + pts2]
    ys = [p[1] for p in pts1 + pts2]
    lo = (min(xs) - 1.0, min(ys) - 1.0)
    hi = (max(xs) + 1.0, max(ys) + 1.0)
    cell = 0.05
    nx = int((hi[0] - lo[0]) / cell) + 2
    ny = int((hi[1] - lo[1]) / cell) + 2
    walls = set()
    for pts in (pts1, pts2):
        for a, b in zip(pts[:-1], pts[1:]):
            walls |= _supercover_cells(a, b, lo, cell)
    cx, cy = part.centroid()
    seed = (int((cx - lo[0]) / cell), int((cy - lo[1]) / cell))
    if seed in walls:
        raise AssertionError("barrier centroid rasterized as wall; bad fixture")
    frontier = [seed]
    seen = {seed}
    while frontier:
        x, y = frontier.pop()
        if x <= 0 or y <= 0 or x >= nx - 1 or y >= ny - 1:
            return False  # escaped to the border: not enclosed
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nxt = (x + dx, y + dy)
            if nxt not in seen and nxt not in walls:
                seen.add(nxt)
                frontier.append(nxt)
    return True


def wiggly_path(rng, side: str) -> Trajectory:
    """Random monotone-in-y path passing the barrier on one side."""
    sgn = -1.0 if side == "left" else 1.0
    ys = np.linspace(-8.0, 9.0, 24)
    xs = np.zeros_like(ys)
    for i, y in enumerate(ys[1:-1], start=1):
        if -2.0 <= y <= 2.0:
            xs[i] = sgn * rng.uniform(3.0, 6.0)
        else:
            xs[i] = rng.uniform(-6.0, 6.0)
    pts = np.stack([xs, ys], axis=1)
    t = Trajectory(pts)
    return t


class TestSignature:
    def test_left_right_labels(self):
        assert signature(LEFT, BARRIER, START, GOAL).label() == "L"
        assert signature(RIGHT, BARRIER, START, GOAL).label() == "R"

    def test_colliding_trajectory_has_no_class(self):
        with pytest.raises(CollidingTrajectory):
            signature(THROUGH, BARRIER, START, GOAL)

    def test_same_class_reflexive(self):
        assert same_class(LEFT, LEFT, BARRIER, START, GOAL)

    def test_left_vs_right_differ(self):
        assert not same_class(LEFT, RIGHT, BARRIER, START, GOAL)

    def test_two_right_side_shapes_agree(self):
        other = traj([(0, -8), (3, -6), (5, 0), (3, 6), (0, 9)])
        assert same_class(RIGHT, other, BARRIER, START, GOAL)

    def test_signature_stable_under_resampling(self):
        for t in (LEFT, RIGHT):
            base = signature(t, BARRIER, START, GOAL)
            for length in (8, 33, 101, 256):
                r = resample(t, length)
                assert signature(r, BARRIER, START, GOAL) == base

    def test_oracle_agreement_random_paths(self):
        rng = np.random.default_rng(5)
        part = BARRIER.parts[0]
        agreements = 0
        for _ in range(40):
            a = wiggly_path(rng, rng.choice(["left", "right"]))
            b = wiggly_path(rng, rng.choice(["left", "right"]))
            if collides(a, BARRIER) or collides(b, BARRIER):
                continue
            same = same_class(a, b, BARRIER, START, GOAL)
            enclosed = loop_encloses_barrier(a, b, part, START, GOAL)
            assert same == (not enclosed)
            agreements += 1
        assert agreements >= 30

    def test_divides_defined_for_colliding_trajectory(self):
        # parity comparison works even though THROUGH touches the barrier
        assert divides(RIGHT, THROUGH, BARRIER, START, GOAL) in (True, False)
        # a barrier wedged between a left and a right path divides them
        assert divides(LEFT, RIGHT, BARRIER, START, GOAL)
        assert not divides(RIGHT, RIGHT, BARRIER, START, GOAL)

    def test_multi_part_signature(self):
        two = RegionSet(
            (
                ConvexPolygon.rectangle(0.0, -3.5, 9.0, 4.0),
                ConvexPolygon.rectangle(0.0, 3.5, 9.0, 4.0),
            ),
            1000.0,
        )
        zig = traj([(0, -8), (-6, -6), (-6, 0), (6, 0), (6, 7), (0, 9)])
        sig = signature(zig, two, START, GOAL)
        assert sig.label() == "LR"


class TestCollides:
    def test_through_collides(self):
        assert collides(THROUGH, BARRIER)

    def test_side_paths_do_not(self):
        assert not collides(LEFT, BARRIER)
        assert not collides(RIGHT, BARRIER)

    def test_single_touching_point(self):
        grazing = traj([(-5, 1), (5, 1)])
        assert collides(grazing, BARRIER)

    def test_vectorized_classification_equals_segment_loop(self):
        """collides and the crossing parities, vectorized over segments, give
        exactly the flags and bits of a per-segment loop with the same float
        operations, grazing contacts on integer coordinates included."""
        region = RegionSet(
            (ConvexPolygon.rectangle(0.0, -3.5, 9.0, 4.0), ConvexPolygon.rectangle(0.0, 3.5, 9.0, 4.0)),
            1000.0,
        )
        rng = np.random.default_rng(12)
        hits = 0
        for k in range(400):
            n = int(rng.integers(2, 40))
            pts = np.cumsum(rng.normal(scale=[0.3, 1.0, 3.0][k % 3], size=(n, 2)), axis=0)
            pts += rng.normal(scale=4.0, size=2)
            if k % 4 == 0:
                pts = np.round(pts)
            t = traj(pts)
            want = any(
                _segment_hits_loop(part, *pts[i], *pts[i + 1])
                for part in region.parts
                for i in range(n - 1)
            )
            assert collides(t, region) == want
            hits += want
            xs = np.concatenate(([START.x], pts[:, 0], [GOAL.x]))
            ys = np.concatenate(([START.y], pts[:, 1], [GOAL.y]))
            bits = tuple(_parity_loop(xs, ys, *p.centroid()) for p in region.parts)
            assert parity_bits(t, region, START, GOAL) == bits
        assert 50 < hits < 350


def collides_every_segment(traj: Trajectory, region: RegionSet) -> bool:
    """collides as it was before its edge pass: every segment clipped."""
    st = traj.states
    return bool(np.any(segment_intersects(region, st[:-1], st[1:])))


def _hull(pts) -> list[tuple[float, float]]:
    """Convex hull in CCW order (Andrew's monotone chain)."""
    pts = sorted(set(pts))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return half(pts) + half(reversed(pts))


# a coarse grid puts path points exactly on part edges and vertices; parts
# lie within [-5, 5]^2, and walks start in [-8, 8]^2, so many miss every part
grid = st.integers(-10, 10).map(lambda v: v / 2.0)
point = st.tuples(
    st.one_of(grid, st.floats(-6.0, 6.0, allow_nan=False, allow_infinity=False)),
    st.one_of(grid, st.floats(-6.0, 6.0, allow_nan=False, allow_infinity=False)),
)
far = st.integers(-16, 16).map(lambda v: v / 2.0)
step = st.one_of(
    st.integers(-2, 2).map(lambda v: v / 2.0),
    st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def wandering_path(draw) -> list[tuple[float, float]]:
    """2-40 points: scattered over the parts, or a walk of short steps."""
    if draw(st.booleans()):
        return draw(st.lists(point, min_size=2, max_size=40))
    x, y = draw(st.tuples(far, far))
    pts = [(x, y)]
    for dx, dy in draw(st.lists(st.tuples(step, step), min_size=1, max_size=39)):
        x, y = x + dx, y + dy
        pts.append((x, y))
    return pts


@st.composite
def barrier_part(draw) -> ConvexPolygon:
    """A random convex hull, a thin sliver, or a dilated hull with many short edges."""
    kind = draw(st.sampled_from(["hull", "sliver", "dilated"]))
    try:
        if kind == "sliver":
            (x0, y0), (x1, y1) = draw(st.tuples(grid, grid)), draw(st.tuples(grid, grid))
            length = math.hypot(x1 - x0, y1 - y0)
            assume(length > 0.0)
            w = draw(st.sampled_from([1e-6, 1e-3, 0.05])) / length
            nx, ny = -(y1 - y0) * w, (x1 - x0) * w  # left normal of width w
            return ConvexPolygon.from_xy([(x0, y0), (x1, y1), (x1 + nx, y1 + ny), (x0 + nx, y0 + ny)])
        poly = ConvexPolygon.from_xy(_hull(draw(st.lists(point, min_size=3, max_size=8))))
        if kind == "dilated":
            r = draw(st.sampled_from([0.05, 0.3, 1.0]))
            poly = dilate(RegionSet((poly,), 1.0), r).parts[0]
        return poly
    except ValueError:  # a degenerate ring
        assume(False)


class TestCollidesEdgePass:
    @given(
        st.lists(barrier_part(), min_size=1, max_size=3),
        wandering_path(),
    )
    @example(  # hits the second part while both ends lie outside an edge of the first
        [ConvexPolygon.rectangle(0.0, 0.0, 2.0, 2.0), ConvexPolygon.rectangle(5.0, 0.0, 2.0, 2.0)],
        [(4.0, -3.0), (4.0, 3.0)],
    )
    @example(  # ends exactly on a vertex of the second part
        [ConvexPolygon.rectangle(0.0, 0.0, 2.0, 2.0), ConvexPolygon.rectangle(5.0, 0.0, 2.0, 2.0)],
        [(4.0, -3.0), (4.0, -1.0)],
    )
    @example(  # passes outside a corner: no edge has both ends outside, yet it misses
        [ConvexPolygon.rectangle(0.0, 0.0, 2.0, 2.0)],
        [(0.5, 2.0), (2.0, 0.5)],
    )
    @settings(max_examples=400, deadline=None)
    def test_equals_clipping_every_segment(self, parts, pts):
        region = RegionSet(tuple(parts), 1000.0)
        t = traj(pts)
        assert collides(t, region) == collides_every_segment(t, region)

    def test_empty_region_touches_nothing(self):
        assert not collides(THROUGH, RegionSet((), 1000.0))


def _segment_hits_loop(poly, ax, ay, bx, by) -> bool:
    lo, hi = 0.0, 1.0
    v = poly.vertices
    for i in range(len(v)):
        p, q = v[i], v[(i + 1) % len(v)]
        da = (q.x - p.x) * (ay - p.y) - (q.y - p.y) * (ax - p.x) + 1e-9
        db = (q.x - p.x) * (by - p.y) - (q.y - p.y) * (bx - p.x) + 1e-9
        if da < 0.0 and db < 0.0:
            return False
        if da < 0.0:
            lo = max(lo, da / (da - db))
        elif db < 0.0:
            hi = min(hi, da / (da - db))
        if lo > hi:
            return False
    return True


def _parity_loop(xs, ys, cx, cy) -> int:
    parity = 0
    for i in range(len(xs) - 1):
        if (xs[i] < cx) != (xs[i + 1] < cx):
            t = (cx - xs[i]) / (xs[i + 1] - xs[i])
            if ys[i] + t * (ys[i + 1] - ys[i]) < cy:
                parity ^= 1
    return parity


class TestResample:
    def test_identity_on_uniform_input(self):
        t = traj([(0, 0), (1, 0), (2, 0), (3, 0)])
        r = resample(t, 4)
        assert np.allclose(r.states, t.states, atol=1e-12)

    def test_two_point_segment_to_three(self):
        t = traj([(0, 0), (2, 0)])
        r = resample(t, 3)
        assert np.allclose(r.states, [(0, 0), (1, 0), (2, 0)])

    def test_l_shape_arc_lengths(self):
        # legs 3 and 1: arc positions 0,1,2,3,4 -> corner hit exactly
        t = traj([(0, 0), (3, 0), (3, 1)])
        r = resample(t, 5)
        assert np.allclose(r.states, [(0, 0), (1, 0), (2, 0), (3, 0), (3, 1)])

    def test_endpoints_exact(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-5, 5, size=(17, 2))
        t = Trajectory(pts)
        r = resample(t, 64)
        assert np.array_equal(r.states[0], t.states[0])
        assert np.array_equal(r.states[-1], t.states[-1])

    @given(st.integers(2, 300))
    @settings(max_examples=50, deadline=None)
    def test_length_contract(self, n):
        r = resample(LEFT, n)
        assert len(r) == n


class TestTrajDistance:
    def test_sup_pointwise(self):
        a = traj([(0, 0), (1, 0), (2, 0)])
        b = traj([(0, 1), (1, 0), (2, 3)])
        assert traj_distance(a, b) == pytest.approx(3.0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            traj_distance(traj([(0, 0), (1, 0)]), traj([(0, 0), (1, 0), (2, 0)]))


def brute_force_bottleneck(dist: np.ndarray) -> float:
    from itertools import permutations

    n = dist.shape[0]
    best = math.inf
    for perm in permutations(range(n)):
        best = min(best, max(dist[i, perm[i]] for i in range(n)))
    return best


def reference_bottleneck(dist: np.ndarray) -> tuple[float, list[int]]:
    """Binary search over the distinct distances with a from-scratch Kuhn
    matching at every probe: rows in order, columns ascending."""
    n = dist.shape[0]
    levels = np.unique(dist)

    def feasible(thr):
        adj = [[j for j in range(n) if dist[i, j] <= thr] for i in range(n)]
        match_r = [-1] * n

        def try_augment(u, seen):
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    if match_r[v] == -1 or try_augment(match_r[v], seen):
                        match_r[v] = u
                        return True
            return False

        for u in range(n):
            if not try_augment(u, [False] * n):
                return None
        out = [-1] * n
        for v, u in enumerate(match_r):
            out[u] = v
        return out

    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(levels[mid]) is not None:
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo]), feasible(levels[lo])


def listkuhn_bottleneck(dist: np.ndarray) -> tuple[float, list[int]]:
    """bottleneck_matching as it was with list adjacency: the same warm-started
    binary search, each row's columns an ascending list scanned with a `seen`
    array."""
    n = dist.shape[0]
    levels = np.unique(dist)

    def augment(root, adj, match_r):
        seen = [False] * n
        rows, cols, untried = [root], [], [iter(adj[root])]
        while untried:
            for v in untried[-1]:
                if not seen[v]:
                    break
            else:
                untried.pop()
                rows.pop()
                if cols:
                    cols.pop()
                continue
            seen[v] = True
            cols.append(v)
            if match_r[v] == -1:
                for r, c in zip(rows, cols):
                    match_r[c] = r
                return True
            rows.append(match_r[v])
            untried.append(iter(adj[match_r[v]]))
        return False

    def augment_free(thr, match_r):
        adj = [np.flatnonzero(row).tolist() for row in dist <= thr]
        matched = set(match_r)
        return all(u in matched or augment(u, adj, match_r) for u in range(n))

    warm = [-1] * n
    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        match_r = list(warm)
        if augment_free(levels[mid], match_r):
            hi = mid
        else:
            warm = match_r
            lo = mid + 1
    match_r = [-1] * n
    assert augment_free(levels[lo], match_r)
    best = [-1] * n
    for v, u in enumerate(match_r):
        best[u] = v
    return float(levels[lo]), best


# coordinates on a coarse grid give many tied distances; the floats do not
coord = st.one_of(
    st.integers(-8, 8).map(lambda v: v / 2.0),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)
path = st.lists(st.tuples(coord, coord), min_size=2, max_size=12)


class TestSupDistances:
    @given(
        st.lists(path, min_size=1, max_size=5),
        st.lists(path, min_size=1, max_size=5),
        st.integers(0, 2),
        st.one_of(st.none(), st.integers(2, 40)),
    )
    @example([[(0.0, 0.0), (1.0, 0.0)]], [[(0.0, 1.0), (0.5, 1.0), (1.0, 1.0)]], 0, None)
    @example([[(0.0, 0.0), (1.0, 2.0)]], [[(3.0, 0.0), (1.0, 2.0)]], 2, 5)
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_traj_distance_loop(self, pa, pb, dups, length):
        a = [Trajectory(np.array(p, dtype=float)) for p in pa]
        b = [Trajectory(np.array(p, dtype=float)) for p in pb]
        b += [a[0]] * dups  # the same path on both sides, and repeated
        a += [b[-1]] * dups
        if length is None:
            length = max(len(t) for t in a + b)
        ra = [resample(t, length) for t in a]
        rb = [resample(t, length) for t in b]
        loop = np.array([[traj_distance(x, y) for y in rb] for x in ra])
        got = _sup_distances(tuple(ra), tuple(rb))
        assert got.shape == (len(a), len(b))
        assert got.tobytes() == loop.tobytes()
        if len(a) == len(b):
            mu, nu = EmpiricalDistribution(tuple(a)), EmpiricalDistribution(tuple(b))
            assert w_infinity_matching(mu, nu, length) == reference_bottleneck(loop)


class TestBottleneck:
    def test_equals_from_scratch_reference_with_ties(self):
        rng = np.random.default_rng(21)
        for _ in range(400):
            n = int(rng.integers(1, 31))
            dist = rng.integers(0, int(rng.integers(1, 10)), size=(n, n)).astype(float)
            assert bottleneck_matching(dist) == reference_bottleneck(dist)

    def test_bitset_search_equals_list_search(self):
        """Value and assignment equal the list-adjacency search's on tied
        matrices, where the order columns are tried in decides the matching."""
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(1, 65))
            dist = rng.integers(0, int(rng.integers(1, 12)), size=(n, n)).astype(float)
            assert bottleneck_matching(dist) == listkuhn_bottleneck(dist)
        for dist in (
            rng.integers(0, 4, size=(300, 300)).astype(float),
            rng.integers(0, 40, size=(300, 300)).astype(float),
            rng.uniform(0.0, 1.0, size=(300, 300)),
        ):
            assert bottleneck_matching(dist) == listkuhn_bottleneck(dist)

    def test_exact_vs_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = rng.integers(1, 7)
            dist = rng.uniform(0, 10, size=(n, n))
            value, assign = bottleneck_matching(dist)
            assert value == brute_force_bottleneck(dist)
            assert sorted(assign) == list(range(n))
            assert max(dist[i, assign[i]] for i in range(n)) == value

    def test_long_augmenting_path_is_not_bounded_by_recursion(self):
        """Row i reaches columns i and i + 1, the last row only column 0:
        greedy rows take their own column, so matching the last row needs an
        augmenting path through every other row (length n - 1)."""
        n = 1600
        dist = np.full((n, n), 2.0)
        idx = np.arange(n - 1)
        dist[idx, idx] = 1.0
        dist[idx, idx + 1] = 1.0
        dist[n - 1, 0] = 1.0
        value, assign = bottleneck_matching(dist)
        assert value == 1.0
        assert assign == list(range(1, n)) + [0]

    def test_value_is_matrix_element(self):
        rng = np.random.default_rng(4)
        dist = rng.uniform(0, 1, size=(5, 5))
        value, _ = bottleneck_matching(dist)
        assert np.any(np.isclose(dist, value))

    def test_w_infinity_zero_on_self(self):
        mu = EmpiricalDistribution((LEFT, RIGHT))
        assert w_infinity_matching(mu, mu)[0] == pytest.approx(0.0)

    def test_w_infinity_shift_upper_bound(self):
        mu = EmpiricalDistribution((LEFT, RIGHT))
        shift = np.array([0.5, 0.5])
        nu = EmpiricalDistribution(tuple(Trajectory(t.states + shift) for t in mu.samples))
        d = w_infinity_matching(mu, nu)[0]
        assert d <= math.hypot(0.5, 0.5) + 1e-9

    def test_w_infinity_single_pair_exact(self):
        mu = EmpiricalDistribution((LEFT,))
        nu = EmpiricalDistribution((Trajectory(LEFT.states + np.array([0.3, -0.4])),))
        assert w_infinity_matching(mu, nu)[0] == pytest.approx(0.5)

    def test_unequal_support(self):
        with pytest.raises(UnequalSupport):
            w_infinity_matching(EmpiricalDistribution((LEFT,)), EmpiricalDistribution((LEFT, RIGHT)))

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        mu = EmpiricalDistribution(
            tuple(Trajectory(rng.uniform(-5, 5, size=(12, 2))) for _ in range(4))
        )
        nu = EmpiricalDistribution(
            tuple(Trajectory(rng.uniform(-5, 5, size=(9, 2))) for _ in range(4))
        )
        assert w_infinity_matching(mu, nu)[0] == pytest.approx(w_infinity_matching(nu, mu)[0])

    def test_matching_variant_consistent(self):
        rng = np.random.default_rng(11)
        mu = EmpiricalDistribution(
            tuple(Trajectory(rng.uniform(-5, 5, size=(8, 2))) for _ in range(5))
        )
        nu = EmpiricalDistribution(
            tuple(Trajectory(rng.uniform(-5, 5, size=(8, 2))) for _ in range(5))
        )
        value, assign = w_infinity_matching(mu, nu)
        assert value == w_infinity_matching(mu, nu)[0]
        assert sorted(assign) == list(range(5))


class TestCsv:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(6)
        t = Trajectory(rng.uniform(-5, 5, size=(10, 2)), raw_states=rng.normal(size=(10, 4)))
        back = trajectory_from_csv(trajectory_to_csv(t))
        assert np.array_equal(back.states, t.states)
        assert np.array_equal(back.raw_states, t.raw_states)

    def test_save_load(self, tmp_path):
        path = tmp_path / "t.csv"
        from easerl.homotopy import save_trajectory

        save_trajectory(path, LEFT)
        back = read_trajectory(path)
        assert np.array_equal(back.states, LEFT.states)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            trajectory_from_csv("a,b,c\n0,1,2\n1,2,3\n")


class TestTrajectoryType:
    def test_needs_two_states(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros((1, 2)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([[0.0, 0.0], [np.nan, 1.0]]))

    def test_parity_bits_on_collider(self):
        bits = parity_bits(THROUGH, BARRIER, START, GOAL)
        assert len(bits) == 1

    def test_points_are_read_only_views_of_the_callers_arrays(self):
        arr = np.array([[0.0, -8.0], [4.0, 0.0], [0.0, 9.0]])
        raw = np.zeros((3, 4))
        t = Trajectory(arr, raw)
        assert np.shares_memory(t.states, arr) and np.shares_memory(t.raw_states, raw)
        for view in (t.states, t.raw_states):
            with pytest.raises(ValueError):
                view[0, 0] = 1.0
        assert arr.flags.writeable and raw.flags.writeable

    def test_pickle_round_trip_is_read_only_and_drops_the_memo(self):
        for t in (LEFT, Trajectory(np.array([[0.0, -8.0], [0.0, 9.0]]), np.ones((2, 3)))):
            before = pickle.dumps(t)
            collides(t, BARRIER)
            parity_bits(t, BARRIER, START, GOAL)
            assert pickle.dumps(t) == before  # the memo is not pickled
            back = pickle.loads(before)
            assert np.array_equal(back.states, t.states) and not back.states.flags.writeable
            if t.raw_states is None:
                assert back.raw_states is None
            else:
                assert np.array_equal(back.raw_states, t.raw_states)
                assert not back.raw_states.flags.writeable
            assert collides(back, BARRIER) == collides(t, BARRIER)
            assert parity_bits(back, BARRIER, START, GOAL) == parity_bits(t, BARRIER, START, GOAL)

    def test_equality_and_hash_are_by_identity(self):
        a = np.array([[0.0, -8.0], [4.0, 0.0], [0.0, 9.0]])
        t, twin = Trajectory(a), Trajectory(a.copy())
        assert t == t and not (t == twin) and t != twin
        keys = {t: "t", twin: "twin"}
        assert keys[t] == "t" and keys[twin] == "twin"
        back = pickle.loads(pickle.dumps(t))
        assert back not in keys and back != t


def _outcome(f, *args):
    """f's answer, or CollidingTrajectory when it raises that."""
    try:
        return f(*args)
    except CollidingTrajectory:
        return CollidingTrajectory


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_remembered_class_queries_equal_a_fresh_trajectory(seed):
    """Interleaved queries on two trajectories, over a subset and the full
    barrier and two anchor pairs, each asked three times, give what a new
    Trajectory built from a copy of the points gives."""
    rng = np.random.default_rng(seed)
    barrier = random_region(rng)
    subset = RegionSet(barrier.parts[:1], barrier.penalty)
    pts = probe_points(rng, [barrier], n_random=10)
    trajs = []
    for _ in range(2):
        n = int(rng.integers(2, 30))
        walk = pts[rng.choice(len(pts), n)]
        if rng.random() < 0.5:  # a smooth path from below to above the field
            walk = np.cumsum(rng.normal(0.0, 0.7, (n, 2)), axis=0) + (rng.uniform(-6, 6), -8.0)
        trajs.append(Trajectory(walk))
    anchors = [ENV.anchors(), tuple(Point2(*p) for p in rng.uniform(-9.0, 11.0, (2, 2)))]
    queries = []
    for region in (subset, barrier):
        queries += [(collides, (t,), (region,)) for t in trajs]
        for a0, a1 in anchors:
            queries += [(f, (t,), (region, a0, a1)) for f in (parity_bits, signature) for t in trajs]
            queries += [(f, tuple(trajs), (region, a0, a1)) for f in (same_class, divides)]
    for q in rng.permutation(3 * len(queries)) % len(queries):
        f, ts, args = queries[q]
        fresh = tuple(Trajectory(t.states.copy()) for t in ts)
        assert _outcome(f, *ts, *args) == _outcome(f, *fresh, *args)
    for t in trajs:
        if collides(t, barrier):
            for _ in range(2):
                with pytest.raises(CollidingTrajectory):
                    signature(t, barrier, *anchors[0])
