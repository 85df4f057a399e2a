"""Homotopy classes of planar trajectories and a bottleneck metric between
trajectory distributions.

A trajectory's class relative to a union of barrier parts is the tuple of
crossing parities: for each part, cast a vertical ray straight down from the
part's centroid and count how often the trajectory (extended by straight
segments to fixed start/goal anchors) crosses it, mod 2.  Parity 1 maps to
"left", parity 0 to "right".  Crossings are counted with a half-open rule
(equivalent to nudging the ray infinitesimally toward -x), so vertices that
land exactly on the ray line cannot double-count.

A Trajectory is an immutable value.  It does not copy its points: `states`
and `raw_states` are read-only views of the float64 arrays passed in (other
dtypes are converted once).  Changing a passed array after construction is
not supported, because each trajectory remembers its class queries:
`collides` per region and `parity_bits` per (region, anchors), so
`signature`, `same_class` and `divides` compute each answer once.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass

import numpy as np

from .errors import CollidingTrajectory, LengthMismatch, UnequalSupport
from .geometry import Point2, RegionSet, segment_intersects


def _read_only(a) -> np.ndarray:
    """A read-only float64 view of `a`, sharing its memory when it is float64."""
    view = np.asarray(a, dtype=float).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class Trajectory:
    """Task-space positions per timestep, plus optional raw state vectors,
    both read-only views of the arrays passed in."""

    states: np.ndarray  # (N, 2) float64
    raw_states: np.ndarray | None = None  # (N, D) or None

    def __post_init__(self):
        st = _read_only(self.states)
        if st.ndim != 2 or st.shape[1] != 2 or st.shape[0] < 2:
            raise ValueError(f"states must be (N>=2, 2), got {st.shape}")
        if not np.all(np.isfinite(st)):
            raise ValueError("non-finite trajectory states")
        object.__setattr__(self, "states", st)
        if self.raw_states is not None:
            raw = _read_only(self.raw_states)
            if raw.shape[0] != st.shape[0]:
                raise ValueError("raw_states length must match states")
            object.__setattr__(self, "raw_states", raw)

    # the answers of collides (keyed by region) and parity_bits (keyed by
    # region and anchors), each computed on first use
    _memo = functools.cached_property(lambda self: {})

    def __reduce__(self):
        # through the constructor, so a copy is read-only and starts with no memo
        return Trajectory, (self.states, self.raw_states)

    def __len__(self) -> int:
        return self.states.shape[0]


@dataclass(frozen=True)
class ClassSignature:
    """One crossing parity bit per barrier part, in part order."""

    side_bits: tuple[int, ...]

    def label(self) -> str:
        return "".join("L" if b else "R" for b in self.side_bits)


def collides(traj: Trajectory, region: RegionSet) -> bool:
    """True when any inter-state segment of the trajectory touches the region;
    computed once per region and trajectory.

    One pass over the region's edge table rules out most segments first: a
    segment misses a part when both its endpoints lie outside one edge of
    that part.  That is the first clause of the clip in segment_intersects,
    from the same inside test, so only the segments left with a part they
    may touch are clipped, and the flag is the one segment_intersects gives.
    """
    memo = traj._memo
    hit = memo.get(region)
    if hit is None:
        table = region.edges
        st = traj.states
        inside = table.inside(st.T)  # (edge, point)
        # (part, segment): no edge of the part has both endpoints outside it
        maybe = np.logical_and.reduceat(inside[:, :-1] | inside[:, 1:], table.first_edge)
        near = maybe.any(axis=0)
        hit = bool(near.any()) and bool(
            np.any(segment_intersects(region, st[:-1][near], st[1:][near])))
        memo[region] = hit
    return hit


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
    """Per-part crossing parities, defined for colliding trajectories too.

    Each part's ray runs straight down from its centroid (cx, cy).  A segment
    of the extended polyline crosses it when exactly one endpoint lies
    strictly left of the ray's vertical line and the intersection with that
    line falls below the ray origin.  Every part's ray is cast in one pass,
    once per (barriers, anchors) and trajectory.
    """
    memo = traj._memo
    key = (barriers, anchor_start, anchor_goal)
    bits = memo.get(key)
    if bits is None:
        xs, ys = _extended_polyline(traj, anchor_start, anchor_goal)
        cx, cy = barriers.centroids.T
        left = xs < cx[:, None]  # (part, point)
        k, i = np.nonzero(left[:, :-1] != left[:, 1:])
        t = (cx[k] - xs[i]) / (xs[i + 1] - xs[i])
        y_hit = ys[i] + t * (ys[i + 1] - ys[i])
        crossings = np.bincount(k[y_hit < cy[k]], minlength=len(cx))
        bits = memo[key] = tuple((crossings & 1).tolist())
    return bits


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

    A probe starts from the partial matching left by the largest infeasible
    probe so far, which stays valid at every higher threshold, and augments
    only the rows still free; it stops at the first row that cannot be
    augmented, since by Berge's lemma no later augmentation can match it.
    The assignment is solved from scratch at the level found, so it does not
    depend on the order of the probes.
    """
    n = dist.shape[0]
    if dist.shape != (n, n):
        raise ValueError("distance matrix must be square")
    levels = np.unique(dist)

    def adjacency(thr: float) -> list[int]:
        """Each row's columns within `thr`, as a bitset: bit j is column j."""
        packed = np.packbits(dist <= thr, axis=1, bitorder="little").tobytes()
        w = (n + 7) // 8  # bytes per row
        return [int.from_bytes(packed[i * w:(i + 1) * w], "little") for i in range(n)]

    def augment_free(adj: list[int], match_r: list[int]) -> bool:
        """Augment every unmatched row in ascending order; False at the
        first row without an augmenting path."""
        matched = [False] * n
        for u in match_r:
            if u != -1:
                matched[u] = True
        for root in range(n):
            if not matched[root] and not _augment(root, adj, match_r):
                return False
        return True

    warm = [-1] * n  # column -> row, from the largest infeasible probe
    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        match_r = list(warm)
        if augment_free(adjacency(float(levels[mid])), match_r):
            hi = mid
        else:
            warm = match_r
            lo = mid + 1
    match_r = [-1] * n
    if not augment_free(adjacency(float(levels[lo])), match_r):
        raise RuntimeError("no perfect matching at maximum distance")
    best = [-1] * n
    for v, u in enumerate(match_r):
        best[u] = v
    return float(levels[lo]), best


def _augment(root: int, adj: list[int], match_r: list[int]) -> bool:
    """Depth-first search for an augmenting path from row `root` (Kuhn's
    algorithm), with an explicit stack so path length is not bounded by the
    interpreter's recursion limit.  `adj[row]` is the row's column bitset;
    each row tries its lowest column not yet visited in this search, so
    columns are tried in ascending order and each is visited at most once.
    On success the matching is flipped along the path, which `match_r`
    (column -> row) records."""
    seen = 0  # bitset of the columns visited
    rows = [root]  # rows on the current path; rows[k + 1] = match_r[cols[k]]
    cols: list[int] = []  # the column through which each deeper row was reached
    while rows:
        cand = adj[rows[-1]] & ~seen
        if not cand:  # dead end: back up one row
            rows.pop()
            if cols:
                cols.pop()
            continue
        low = cand & -cand
        seen |= low
        v = low.bit_length() - 1
        cols.append(v)
        if match_r[v] == -1:
            for r, c in zip(rows, cols):
                match_r[c] = r
            return True
        rows.append(match_r[v])
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
    dist = _sup_distances(mu.resampled(length).samples, nu.resampled(length).samples)
    return bottleneck_matching(dist)


def _sup_distances(a: tuple[Trajectory, ...], b: tuple[Trajectory, ...]) -> np.ndarray:
    """traj_distance(a[i], b[j]) for every pair, as one (len(a), len(b)) array.

    All trajectories have the same length.  The result is bit-equal to
    traj_distance: its sum over the two coordinates is exactly dx*dx + dy*dy,
    and sqrt is correctly rounded and monotone, so the root of the largest
    square is the largest root.
    """
    pa = np.stack([t.states for t in a], axis=1)  # (length, len(a), 2)
    pb = np.stack([t.states for t in b], axis=1)
    shape = (len(a), len(b))
    sq_max = np.zeros(shape)
    dx = np.empty(shape)
    dy = np.empty(shape)
    for sa, sb in zip(pa, pb):  # every trajectory's state at one time step
        np.subtract.outer(sa[:, 0], sb[:, 0], out=dx)
        np.subtract.outer(sa[:, 1], sb[:, 1], out=dy)
        np.multiply(dx, dx, out=dx)
        np.multiply(dy, dy, out=dy)
        np.add(dx, dy, out=dx)
        np.maximum(sq_max, dx, out=sq_max)
    return np.sqrt(sq_max, out=sq_max)


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


def order_by_t(group: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The order of rows by group, then by t; a NaN or repeated t within a
    group is a ValueError."""
    order = np.lexsort((t, group))
    g, ts = group[order], t[order]
    if np.isnan(t).any() or np.any((g[1:] == g[:-1]) & (ts[1:] == ts[:-1])):
        raise ValueError("every row needs a t of its own that is a number")
    return order


def sorted_by_t(rows: list) -> list:
    """Rows (t, ...) in increasing t; a NaN or repeated t is a ValueError."""
    t = np.array([row[0] for row in rows], dtype=float)
    return [rows[i] for i in order_by_t(np.zeros(len(rows), dtype=int), t)]


def trajectory_from_csv(text: str) -> Trajectory:
    """A trajectory from its CSV, its rows taken in increasing t."""
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 3:
        raise ValueError("trajectory CSV needs a header and at least 2 rows")
    header = rows[0]
    if header[:3] != ["t", "x", "y"]:
        raise ValueError(f"unexpected trajectory CSV header {header[:3]}")
    raw_dim = len(header) - 3
    rows = sorted_by_t([[float(v) for v in row[: 3 + raw_dim]] for row in rows[1:]])
    raws = np.array([row[3:] for row in rows]) if raw_dim else None
    return Trajectory(np.array([row[1:3] for row in rows]), raws)


def save_trajectory(path, traj: Trajectory) -> None:
    with open(path, "w") as f:
        f.write(trajectory_to_csv(traj))
