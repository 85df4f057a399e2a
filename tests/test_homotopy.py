import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from easerl.errors import CollidingTrajectory, LengthMismatch, UnequalSupport
from easerl.geometry import ConvexPolygon, Point2, RegionSet
from easerl.homotopy import (
    EmpiricalDistribution,
    Trajectory,
    bottleneck_matching,
    collides,
    divides,
    load_trajectory,
    parity_bits,
    resample,
    same_class,
    signature,
    traj_distance,
    trajectory_from_csv,
    trajectory_to_csv,
    w_infinity,
    w_infinity_matching,
)

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


class TestBottleneck:
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
        assert w_infinity(mu, mu) == pytest.approx(0.0)

    def test_w_infinity_shift_upper_bound(self):
        mu = EmpiricalDistribution((LEFT, RIGHT))
        shift = np.array([0.5, 0.5])
        nu = EmpiricalDistribution(tuple(Trajectory(t.states + shift) for t in mu.samples))
        d = w_infinity(mu, nu)
        assert d <= math.hypot(0.5, 0.5) + 1e-9

    def test_w_infinity_single_pair_exact(self):
        mu = EmpiricalDistribution((LEFT,))
        nu = EmpiricalDistribution((Trajectory(LEFT.states + np.array([0.3, -0.4])),))
        assert w_infinity(mu, nu) == pytest.approx(0.5)

    def test_unequal_support(self):
        with pytest.raises(UnequalSupport):
            w_infinity(EmpiricalDistribution((LEFT,)), EmpiricalDistribution((LEFT, RIGHT)))

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        mu = EmpiricalDistribution(
            tuple(Trajectory(rng.uniform(-5, 5, size=(12, 2))) for _ in range(4))
        )
        nu = EmpiricalDistribution(
            tuple(Trajectory(rng.uniform(-5, 5, size=(9, 2))) for _ in range(4))
        )
        assert w_infinity(mu, nu) == pytest.approx(w_infinity(nu, mu))

    def test_matching_variant_consistent(self):
        rng = np.random.default_rng(11)
        mu = EmpiricalDistribution(
            tuple(Trajectory(rng.uniform(-5, 5, size=(8, 2))) for _ in range(5))
        )
        nu = EmpiricalDistribution(
            tuple(Trajectory(rng.uniform(-5, 5, size=(8, 2))) for _ in range(5))
        )
        value, assign = w_infinity_matching(mu, nu)
        assert value == w_infinity(mu, nu)
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
        back = load_trajectory(path)
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
