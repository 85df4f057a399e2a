"""Homotopy classes of planar trajectories and a bottleneck metric between
trajectory distributions.

A trajectory's class relative to a union of barrier parts is the tuple of
crossing parities: for each part, cast a vertical ray straight down from the
part's centroid and count how often the trajectory (extended by straight
segments to fixed start/goal anchors) crosses it, mod 2.  Parity 1 maps to
"left", parity 0 to "right".  Crossings are counted with a half-open rule
(equivalent to nudging the ray infinitesimally toward -x), so vertices that
land exactly on the ray line cannot double-count.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import CollidingTrajectory, LengthMismatch, UnequalSupport
from .geometry import Point2, RegionSet, segment_intersects


@dataclass(frozen=True)
class Trajectory:
    """Task-space positions per timestep, plus optional raw state vectors."""

    states: np.ndarray  # (N, 2) float64
    raw_states: np.ndarray | None = None  # (N, D) or None

    def __post_init__(self):
        st = np.asarray(self.states, dtype=float)
        if st.ndim != 2 or st.shape[1] != 2 or st.shape[0] < 2:
            raise ValueError(f"states must be (N>=2, 2), got {st.shape}")
        if not np.all(np.isfinite(st)):
            raise ValueError("non-finite trajectory states")
        object.__setattr__(self, "states", st)
        if self.raw_states is not None:
            raw = np.asarray(self.raw_states, dtype=float)
            if raw.shape[0] != st.shape[0]:
                raise ValueError("raw_states length must match states")
            object.__setattr__(self, "raw_states", raw)

    def __len__(self) -> int:
        return self.states.shape[0]


@dataclass(frozen=True)
class ClassSignature:
    """One crossing parity bit per barrier part, in part order."""

    side_bits: tuple[int, ...]

    def label(self) -> str:
        return "".join("L" if b else "R" for b in self.side_bits)


def collides(traj: Trajectory, region: RegionSet) -> bool:
    """True when any inter-state segment of the trajectory touches the region."""
    st = traj.states
    return bool(np.any(segment_intersects(region, st[:-1], st[1:])))


def _ray_parity(
    xs: np.ndarray, ys: np.ndarray, cx: float, cy: float
) -> int:
    """Crossing parity of polyline (xs, ys) with the downward ray from (cx, cy).

    A segment contributes one crossing when exactly one endpoint lies strictly
    left of the ray's vertical line and the intersection with that line falls
    below the ray origin.
    """
    left = xs < cx
    i = np.nonzero(left[:-1] != left[1:])[0]
    t = (cx - xs[i]) / (xs[i + 1] - xs[i])
    y_hit = ys[i] + t * (ys[i + 1] - ys[i])
    return int(np.count_nonzero(y_hit < cy)) & 1


def _extended_polyline(
    traj: Trajectory, anchor_start: Point2, anchor_goal: Point2
) -> tuple[np.ndarray, np.ndarray]:
    st = traj.states
    xs = np.concatenate(([anchor_start.x], st[:, 0], [anchor_goal.x]))
    ys = np.concatenate(([anchor_start.y], st[:, 1], [anchor_goal.y]))
    return xs, ys


def parity_bits(
    traj: Trajectory, barriers: RegionSet, anchor_start: Point2, anchor_goal: Point2
) -> tuple[int, ...]:
    """Per-part crossing parities, defined for colliding trajectories too."""
    xs, ys = _extended_polyline(traj, anchor_start, anchor_goal)
    bits = []
    for part in barriers.parts:
        c = part.centroid()
        bits.append(_ray_parity(xs, ys, c.x, c.y))
    return tuple(bits)


def signature(
    traj: Trajectory, barriers: RegionSet, anchor_start: Point2, anchor_goal: Point2
) -> ClassSignature:
    """Homotopy class signature of a non-colliding trajectory.

    Raises CollidingTrajectory when the trajectory touches the barrier, since
    a colliding trajectory belongs to no class.
    """
    if collides(traj, barriers):
        raise CollidingTrajectory("trajectory touches the barrier; no class defined")
    return ClassSignature(parity_bits(traj, barriers, anchor_start, anchor_goal))


def same_class(
    t1: Trajectory,
    t2: Trajectory,
    barriers: RegionSet,
    anchor_start: Point2,
    anchor_goal: Point2,
) -> bool:
    """True when both non-colliding trajectories share every crossing parity."""
    s1 = signature(t1, barriers, anchor_start, anchor_goal)
    s2 = signature(t2, barriers, anchor_start, anchor_goal)
    return s1 == s2


def divides(
    t1: Trajectory,
    t2: Trajectory,
    region: RegionSet,
    anchor_start: Point2,
    anchor_goal: Point2,
) -> bool:
    """Whether `region` separates the two trajectories' crossing parities.

    Unlike same_class this is defined for trajectories that touch the region:
    parity counts ray crossings and needs no collision-freeness.  It is the
    divide oracle used by the barrier-subset search, where candidate subsets
    are probed against a relaxed trajectory that may pass straight through
    them.
    """
    b1 = parity_bits(t1, region, anchor_start, anchor_goal)
    b2 = parity_bits(t2, region, anchor_start, anchor_goal)
    return b1 != b2


def resample(traj: Trajectory, length: int) -> Trajectory:
    """Arc-length-uniform piecewise-linear resampling to exactly `length` states.

    Endpoints are preserved exactly.  Raw state vectors are not carried over;
    the result is a purely geometric curve.
    """
    if length < 2:
        raise ValueError("resample length must be >= 2")
    st = traj.states
    seg = np.sqrt(np.sum(np.diff(st, axis=0) ** 2, axis=1))
    s = np.concatenate(([0.0], np.cumsum(seg)))
    total = s[-1]
    if total <= 0.0:
        out = np.repeat(st[:1], length, axis=0)
        return Trajectory(out)
    # drop zero-length duplicates so interpolation abscissae strictly increase
    keep = np.concatenate(([True], seg > 0.0))
    s_k = s[keep]
    st_k = st[keep]
    targets = np.linspace(0.0, total, length)
    xs = np.interp(targets, s_k, st_k[:, 0])
    ys = np.interp(targets, s_k, st_k[:, 1])
    out = np.stack([xs, ys], axis=1)
    out[0] = st[0]
    out[-1] = st[-1]
    return Trajectory(out)


def traj_distance(t1: Trajectory, t2: Trajectory) -> float:
    """Sup over timesteps of pointwise Euclidean distance."""
    if len(t1) != len(t2):
        raise LengthMismatch(f"lengths {len(t1)} vs {len(t2)}")
    d = np.sqrt(np.sum((t1.states - t2.states) ** 2, axis=1))
    return float(np.max(d))


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Finite sample of trajectories with uniform weights."""

    samples: tuple[Trajectory, ...]

    def __post_init__(self):
        if not self.samples:
            raise ValueError("empty distribution")

    def resampled(self, length: int) -> "EmpiricalDistribution":
        return EmpiricalDistribution(tuple(resample(t, length) for t in self.samples))


def bottleneck_matching(dist: np.ndarray) -> tuple[float, list[int]]:
    """Minimax perfect matching on a square distance matrix.

    Returns (value, assignment) where assignment[i] is the column matched to
    row i and value is the largest matched distance, minimized.  The value is
    always an element of the matrix (found by binary search over the sorted
    distinct distances, with matching feasibility as the predicate).
    """
    n = dist.shape[0]
    if dist.shape != (n, n):
        raise ValueError("distance matrix must be square")
    levels = np.unique(dist)

    def feasible(thr: float) -> list[int] | None:
        adj = [np.nonzero(dist[i] <= thr)[0].tolist() for i in range(n)]
        match_r = [-1] * n
        for root in range(n):
            if not _augment(root, adj, match_r):
                return None
        out = [-1] * n
        for v, u in enumerate(match_r):
            out[u] = v
        return out

    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(float(levels[mid])) is not None:
            hi = mid
        else:
            lo = mid + 1
    best = feasible(float(levels[lo]))
    if best is None:
        raise RuntimeError("no perfect matching at maximum distance")
    return float(levels[lo]), best


def _augment(root: int, adj: list[list[int]], match_r: list[int]) -> bool:
    """Depth-first search for an augmenting path from row `root` (Kuhn's
    algorithm), with an explicit stack so path length is not bounded by the
    interpreter's recursion limit.  Columns are tried in adjacency order and
    each column is visited at most once per search.  On success the matching
    is flipped along the path, which `match_r` (column -> row) records."""
    seen = [False] * len(match_r)
    rows = [root]  # rows on the current path; rows[k + 1] = match_r[cols[k]]
    cols: list[int] = []  # the column through which each deeper row was reached
    untried = [iter(adj[root])]  # each path row's columns not yet tried
    while untried:
        for v in untried[-1]:
            if not seen[v]:
                break
        else:  # dead end: back up one row
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


def w_infinity_matching(
    mu: EmpiricalDistribution, nu: EmpiricalDistribution, length: int | None = None
) -> tuple[float, list[int]]:
    """Bottleneck distance plus the optimal matching that attains it.

    All samples are resampled to a common length first (the longest sample by
    default), then the minimax matching value under traj_distance is returned.
    Raises UnequalSupport when sample counts differ.
    """
    if len(mu.samples) != len(nu.samples):
        raise UnequalSupport(
            f"sample counts {len(mu.samples)} vs {len(nu.samples)}"
        )
    if length is None:
        length = max(max(len(t) for t in mu.samples), max(len(t) for t in nu.samples))
    a = mu.resampled(length).samples
    b = nu.resampled(length).samples
    n = len(a)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            dist[i, j] = traj_distance(a[i], b[j])
    return bottleneck_matching(dist)


def w_infinity(
    mu: EmpiricalDistribution, nu: EmpiricalDistribution, length: int | None = None
) -> float:
    """Bottleneck distance between equal-size empirical trajectory distributions."""
    value, _ = w_infinity_matching(mu, nu, length)
    return value


def trajectory_to_csv(traj: Trajectory) -> str:
    """Serialize one trajectory: one row per timestep (t, x, y, raw...)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    raw_dim = 0 if traj.raw_states is None else traj.raw_states.shape[1]
    w.writerow(["t", "x", "y"] + [f"s{i}" for i in range(raw_dim)])
    for t in range(len(traj)):
        row = [t, repr(float(traj.states[t, 0])), repr(float(traj.states[t, 1]))]
        if raw_dim:
            row += [repr(float(v)) for v in traj.raw_states[t]]
        w.writerow(row)
    return buf.getvalue()


def trajectory_from_csv(text: str) -> Trajectory:
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 3:
        raise ValueError("trajectory CSV needs a header and at least 2 rows")
    header = rows[0]
    if header[:3] != ["t", "x", "y"]:
        raise ValueError(f"unexpected trajectory CSV header {header[:3]}")
    raw_dim = len(header) - 3
    states = []
    raws = []
    for row in rows[1:]:
        states.append((float(row[1]), float(row[2])))
        if raw_dim:
            raws.append([float(v) for v in row[3:]])
    return Trajectory(
        np.array(states), np.array(raws) if raw_dim else None
    )


def save_trajectory(path, traj: Trajectory) -> None:
    with open(path, "w") as f:
        f.write(trajectory_to_csv(traj))


def load_trajectory(path) -> Trajectory:
    with open(path) as f:
        return trajectory_from_csv(f.read())
