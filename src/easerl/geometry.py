"""2-D geometry for barrier regions.

Convex polygons with counter-clockwise vertex order model barrier parts; a
RegionSet is a union of parts carrying a penalty magnitude.  All containment
and crossing predicates treat regions as closed sets with an absolute
tolerance of EPS, so boundary contact counts as contact.  EdgeTable is the
one statement of that rule; every containment and crossing test, in this
module and in the reward and the homotopy classifier, reads an edge table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCut

EPS = 1e-9
# chords per vertex fan in dilate(); the fan circumscribes the true arc so the
# dilation over-approximates rather than under-approximates
ARC_SEGMENTS = 8
_AREA_TOL = 1e-12


@dataclass(frozen=True)
class Point2:
    """A point in the plane. Coordinates must be finite."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")

    def __iter__(self):
        yield self.x
        yield self.y


def _cross(ox: float, oy: float, ax: float, ay: float, bx: float, by: float) -> float:
    """Signed area of the parallelogram (a-o) x (b-o); >0 means b is left of o->a."""
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def _clean_ring(pts: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Drop duplicate and collinear vertices from a convex CCW ring."""
    out: list[tuple[float, float]] = []
    for p in pts:
        if not out or math.hypot(p[0] - out[-1][0], p[1] - out[-1][1]) > EPS:
            out.append(p)
    if len(out) > 1 and math.hypot(out[0][0] - out[-1][0], out[0][1] - out[-1][1]) <= EPS:
        out.pop()
    changed = True
    while changed and len(out) >= 3:
        changed = False
        for i in range(len(out)):
            a = out[i - 1]
            b = out[i]
            c = out[(i + 1) % len(out)]
            if abs(_cross(a[0], a[1], b[0], b[1], c[0], c[1])) <= EPS:
                out.pop(i)
                changed = True
                break
    return out


@dataclass(frozen=True)
class ConvexPolygon:
    """Convex polygon, vertices in CCW order, no three collinear."""

    vertices: tuple[Point2, ...]

    def __post_init__(self):
        v = self.vertices
        if len(v) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        n = len(v)
        for i in range(n):
            a, b, c = v[i], v[(i + 1) % n], v[(i + 2) % n]
            turn = _cross(a.x, a.y, b.x, b.y, c.x, c.y)
            if turn <= EPS:
                raise ValueError(
                    f"vertices must be strictly convex in CCW order (turn {turn} at index {i})"
                )

    @staticmethod
    def from_xy(pts: list[tuple[float, float]]) -> "ConvexPolygon":
        cleaned = _clean_ring(pts)
        if len(cleaned) < 3:
            raise ValueError("degenerate ring")
        return ConvexPolygon(tuple(Point2(x, y) for x, y in cleaned))

    @staticmethod
    def rectangle(cx: float, cy: float, width: float, height: float) -> "ConvexPolygon":
        hw, hh = width / 2.0, height / 2.0
        return ConvexPolygon(
            (
                Point2(cx - hw, cy - hh),
                Point2(cx + hw, cy - hh),
                Point2(cx + hw, cy + hh),
                Point2(cx - hw, cy + hh),
            )
        )

    # the dataclass hash of the fields, computed on first use: a lookup keyed
    # by a polygon or a region would otherwise walk every vertex on each call
    _hash = functools.cached_property(lambda self: hash((self.vertices,)))

    def __hash__(self) -> int:
        return self._hash

    def centroid(self) -> Point2:
        v = self.vertices
        a2 = 0.0
        cx = cy = 0.0
        for i in range(len(v)):
            p, q = v[i], v[(i + 1) % len(v)]
            w = p.x * q.y - q.x * p.y
            a2 += w
            cx += (p.x + q.x) * w
            cy += (p.y + q.y) * w
        return Point2(cx / (3.0 * a2), cy / (3.0 * a2))

    def bbox(self) -> tuple[float, float, float, float]:
        xs = [p.x for p in self.vertices]
        ys = [p.y for p in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)

    def contains_point(self, x, y):
        """Closed-set membership within EPS; elementwise when x and y are arrays."""
        return edge_table(((self,),)).membership(np.array((x, y), dtype=float))[0]

    def distance_to_point(self, x: float, y: float) -> float:
        if self.contains_point(x, y):
            return 0.0
        best = math.inf
        v = self.vertices
        for i in range(len(v)):
            a, b = v[i], v[(i + 1) % len(v)]
            best = min(best, _point_segment_distance(x, y, a.x, a.y, b.x, b.y))
        return best

    def farthest_distance(self, pts: np.ndarray) -> float:
        """max(distance_to_point(x, y) for x, y in pts), or 0.0 for no points.

        One membership call and one array pass over every (edge, point) pair,
        with distance_to_point's expressions, pick the points that may attain
        the maximum.  distance_to_point then gives its value: np.hypot and
        math.hypot can differ in the last bit.
        """
        out = pts[~self.contains_point(pts[:, 0], pts[:, 1])]
        if not len(out):
            return 0.0
        table = edge_table(((self,),))
        (ax, ay), dx, dy = table.start, table.dx, table.dy  # (edge, 1) each
        px, py = out.T
        t = np.clip(((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy), 0.0, 1.0)
        dist = np.hypot(px - (ax + t * dx), py - (ay + t * dy)).min(axis=0)
        near = out[dist >= dist.max() * (1.0 - 1e-9)]  # far wider than a last-bit difference
        return max(self.distance_to_point(x, y) for x, y in near.tolist())


def _point_segment_distance(px, py, ax, ay, bx, by) -> float:
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    if L2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / L2
    t = max(0.0, min(1.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


@dataclass(frozen=True)
class RegionSet:
    """Union of convex parts plus the penalty magnitude charged inside them."""

    parts: tuple[ConvexPolygon, ...]
    penalty: float

    def __post_init__(self):
        if not self.penalty > 0.0:  # NaN is not positive either
            raise ValueError(f"penalty must be positive, got {self.penalty!r}")

    _hash = functools.cached_property(lambda self: hash((self.parts, self.penalty)))

    def __hash__(self) -> int:  # computed once, as ConvexPolygon's
        return self._hash

    def bbox(self) -> tuple[float, float, float, float]:
        if not self.parts:
            raise ValueError("empty region has no bbox")
        boxes = [p.bbox() for p in self.parts]
        return (
            min(b[0] for b in boxes),
            min(b[1] for b in boxes),
            max(b[2] for b in boxes),
            max(b[3] for b in boxes),
        )

    @functools.cached_property
    def edges(self) -> "EdgeTable":
        """The edge table of the region's parts, as one set."""
        return edge_table((self.parts,))

    @functools.cached_property
    def centroids(self) -> np.ndarray:
        """(parts, 2) centroids of the parts, in part order; read-only."""
        c = np.array([tuple(p.centroid()) for p in self.parts]).reshape(-1, 2)
        c.flags.writeable = False
        return c


@dataclass(frozen=True, eq=False)
class EdgeTable:
    """Every edge p -> q of a tuple of polygon sets, in set, polygon and
    vertex order.  A point is inside an edge when its cross value is at
    least -EPS, inside a polygon when inside all its edges, and in a set
    when inside any of its polygons.  Results put the edge or set axis
    first, before the axes of the points."""

    start: np.ndarray  # (2, E, 1): x and y of each edge's start point p
    dx: np.ndarray  # (E, 1): q - p
    dy: np.ndarray
    first_edge: np.ndarray  # each polygon's first edge
    first_poly: np.ndarray  # each set's first polygon

    def cross(self, xy) -> np.ndarray:
        """(E, ...) cross value of every edge and every point of xy, the
        (2, ...) coordinates of one point or of an array of them."""
        xy = np.asarray(xy, dtype=float)
        d = xy.reshape(2, 1, -1) - self.start
        return (self.dx * d[1] - self.dy * d[0]).reshape((len(self.dx),) + xy.shape[1:])

    def inside(self, xy) -> np.ndarray:
        """(E, ...) whether each point is on the inner side of each edge."""
        return self.cross(xy) >= -EPS

    def membership(self, xy) -> np.ndarray:
        """(sets, ...) closed-set membership of each point in each set."""
        hit = np.logical_and.reduceat(self.inside(xy), self.first_edge, axis=0)
        if len(self.first_poly) == len(self.first_edge):  # one polygon a set
            return hit
        return np.logical_or.reduceat(hit, self.first_poly, axis=0)


@functools.lru_cache(maxsize=64)
def edge_table(sets: tuple[tuple[ConvexPolygon, ...], ...]) -> EdgeTable:
    """The EdgeTable of a tuple of polygon sets, built once per tuple.  An
    empty set gets one edge whose inner side, x <= -inf, holds no point."""
    rings = [[poly.vertices for poly in polygons] or [()] for polygons in sets]
    polys = [[(p.x, p.y, q.x - p.x, q.y - p.y) for p, q in zip(v, v[1:] + v[:1])]
             or [(math.inf, 0.0, 0.0, -1.0)] for ring in rings for v in ring]
    px, py, dx, dy = np.array([e for poly in polys for e in poly]).T[..., None]
    first_edge, first_poly = (np.cumsum([0] + [len(x) for x in xs[:-1]]) for xs in (polys, rings))
    return EdgeTable(np.stack([px, py]), dx, dy, first_edge, first_poly)


def _xy(p):
    """(2, ...) coordinates of a Point2 or of an (..., 2) array of points."""
    p = np.asarray((p.x, p.y) if isinstance(p, Point2) else p, dtype=float)
    return p.T if p.ndim <= 2 else np.moveaxis(p, -1, 0)  # the transpose is far cheaper


def contains(region: RegionSet, p):
    """Closed-set membership in any part of the region.

    `p` is a Point2 (one flag) or an (..., 2) array of points (a mask).
    """
    return region.edges.membership(_xy(p))[0]


def segment_intersects(region: RegionSet, a, b):
    """True when the closed segment a-b touches any part of the region.

    `a` and `b` are Point2s (one flag) or (..., 2) arrays of endpoints (one
    flag per segment).  All parts are clipped in one pass: a segment misses
    a part when both its endpoints are outside one edge, or when clipping
    its parameter interval against every edge leaves it empty (Liang-Barsky),
    so grazing contact counts as intersection (within EPS).
    """
    table = region.edges
    # signed distance (scaled) of segment endpoints from edge lines, >= 0 inside
    da = table.cross(_xy(a)) + EPS
    db = table.cross(_xy(b)) + EPS
    enter = da < 0.0
    leave = ~enter & (db < 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = da / (da - db)
    lo = np.maximum.reduceat(np.where(enter, t, 0.0), table.first_edge, axis=0)
    hi = np.minimum.reduceat(np.where(leave, t, 1.0), table.first_edge, axis=0)
    missed = np.logical_or.reduceat(enter & (db < 0.0), table.first_edge, axis=0)
    return (~missed & (lo <= hi)).any(axis=0)


def _clip_halfplane(
    pts: list[tuple[float, float]], nx: float, ny: float, c: float
) -> list[tuple[float, float]]:
    """Keep the part of a convex CCW ring with nx*x + ny*y <= c."""
    out: list[tuple[float, float]] = []
    n = len(pts)
    for i in range(n):
        cur = pts[i]
        nxt = pts[(i + 1) % n]
        d_cur = nx * cur[0] + ny * cur[1] - c
        d_nxt = nx * nxt[0] + ny * nxt[1] - c
        if d_cur <= EPS:
            out.append(cur)
        if (d_cur < -EPS and d_nxt > EPS) or (d_cur > EPS and d_nxt < -EPS):
            t = d_cur / (d_cur - d_nxt)
            out.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
    return out


def _poly_from_ring(pts: list[tuple[float, float]]) -> ConvexPolygon | None:
    cleaned = _clean_ring(pts)
    if len(cleaned) < 3:
        return None
    s = 0.0
    for i in range(len(cleaned)):
        a = cleaned[i]
        b = cleaned[(i + 1) % len(cleaned)]
        s += a[0] * b[1] - b[0] * a[1]
    if 0.5 * s <= _AREA_TOL:
        return None
    return ConvexPolygon(tuple(Point2(x, y) for x, y in cleaned))


def bisect(poly: ConvexPolygon) -> tuple[ConvexPolygon, ConvexPolygon]:
    """Cut a polygon into two halves across its bounding box's longest axis.

    The cut line is the perpendicular bisector of the bounding box along its
    longest extent; ties prefer the x-axis.  Returns (low, high) halves in
    coordinate order along the cut axis.  Raises DegenerateCut when a half
    degenerates to (near) zero area.
    """
    xmin, ymin, xmax, ymax = poly.bbox()
    ring = [(p.x, p.y) for p in poly.vertices]
    if (xmax - xmin) >= (ymax - ymin):
        mid = 0.5 * (xmin + xmax)
        low = _poly_from_ring(_clip_halfplane(ring, 1.0, 0.0, mid))
        high = _poly_from_ring(_clip_halfplane(ring, -1.0, 0.0, -mid))
    else:
        mid = 0.5 * (ymin + ymax)
        low = _poly_from_ring(_clip_halfplane(ring, 0.0, 1.0, mid))
        high = _poly_from_ring(_clip_halfplane(ring, 0.0, -1.0, -mid))
    if low is None or high is None:
        raise DegenerateCut("bisection produced a near-zero-area half")
    return low, high


def intersect_clip(region: RegionSet, window: ConvexPolygon) -> RegionSet:
    """Clip every part of a region to a convex window; empty parts are dropped."""
    out: list[ConvexPolygon] = []
    wv = window.vertices
    for part in region.parts:
        ring = [(p.x, p.y) for p in part.vertices]
        for i in range(len(wv)):
            a, b = wv[i], wv[(i + 1) % len(wv)]
            # inside of CCW edge a->b is cross >= 0, i.e. -dy*x + dx*y <= -dy*ax + dx*ay
            nx, ny = (b.y - a.y), -(b.x - a.x)
            c = nx * a.x + ny * a.y
            ring = _clip_halfplane(ring, nx, ny, c)
            if not ring:
                break
        if ring:
            p = _poly_from_ring(ring)
            if p is not None:
                out.append(p)
    return RegionSet(tuple(out), region.penalty)


def dilate(region: RegionSet, radius: float) -> RegionSet:
    """Conservative outward offset of every part by `radius`.

    Edges translate outward by the radius; each vertex grows a fan of
    ARC_SEGMENTS chords whose points sit at radius / cos(step/2), so every
    chord stays outside the true arc and the result contains the exact
    Minkowski dilation.
    """
    if radius < 0.0:
        raise ValueError("radius must be nonnegative")
    if radius == 0.0:
        return region
    parts = []
    for part in region.parts:
        parts.append(_dilate_polygon(part, radius))
    return RegionSet(tuple(parts), region.penalty)


def _dilate_polygon(poly: ConvexPolygon, radius: float) -> ConvexPolygon:
    v = poly.vertices
    n = len(v)
    ring: list[tuple[float, float]] = []
    for i in range(n):
        prev = v[(i - 1) % n]
        cur = v[i]
        nxt = v[(i + 1) % n]
        # outward unit normals of the edges entering and leaving this vertex
        a_in = math.atan2(cur.y - prev.y, cur.x - prev.x) - math.pi / 2.0
        a_out = math.atan2(nxt.y - cur.y, nxt.x - cur.x) - math.pi / 2.0
        turn = (a_out - a_in) % (2.0 * math.pi)
        step = turn / ARC_SEGMENTS
        r_out = radius / math.cos(step / 2.0)
        for k in range(ARC_SEGMENTS + 1):
            ang = a_in + k * step
            ring.append((cur.x + r_out * math.cos(ang), cur.y + r_out * math.sin(ang)))
    out = _poly_from_ring(ring)
    if out is None:
        raise ValueError("dilation produced a degenerate ring")
    return out
