"""Output checks written apart from the program.

Every function here recomputes a result from first principles (plain
geometry, the documented table rule, an own car simulator, an own matching)
or tests a property the method must have, and returns a list of error
strings; an empty list means the output passed.  Nothing here imports
`easerl`; the landscape check is handed its noise tapes from `easerl.seeding`.
"""

from __future__ import annotations

import csv
import itertools
import math
import statistics

import numpy as np

EPS = 1e-9

# -- geometry -------------------------------------------------------------


def segment_touches_rect(ax, ay, bx, by, rect, eps=EPS) -> bool:
    """Whether the closed segment a-b meets the closed axis-aligned
    rectangle (x0, y0, x1, y1), grown by eps (Liang-Barsky clipping)."""
    x0, y0, x1, y1 = rect
    t0, t1 = 0.0, 1.0
    dx, dy = bx - ax, by - ay
    for p, q in ((-dx, ax - (x0 - eps)), (dx, (x1 + eps) - ax),
                 (-dy, ay - (y0 - eps)), (dy, (y1 + eps) - ay)):
        if p == 0.0:
            if q < 0.0:
                return False
        else:
            t = q / p
            if p < 0.0:
                t0 = max(t0, t)
            else:
                t1 = min(t1, t)
            if t0 > t1:
                return False
    return True


def path_touches_rects(points, rects) -> bool:
    pts = np.asarray(points, dtype=float)
    return any(
        segment_touches_rect(*pts[k], *pts[k + 1], rect)
        for k in range(len(pts) - 1)
        for rect in rects
    )


def side_passed(points, rect) -> str | None:
    """'L' or 'R' for a path that goes from below the rectangle to above it
    without touching it, by the parity of its crossings of the rectangle's
    horizontal mid-line to the left of the rectangle; None otherwise."""
    pts = np.asarray(points, dtype=float)
    x0, y0, x1, y1 = rect
    if pts[0, 1] >= y0 or pts[-1, 1] <= y1 or path_touches_rects(pts, [rect]):
        return None
    ym = 0.5 * (y0 + y1)
    left = 0
    for (ax, ay), (bx, by) in zip(pts[:-1], pts[1:]):
        if (ay < ym) != (by < ym):
            x_hit = ax + (ym - ay) / (by - ay) * (bx - ax)
            left += x_hit < x0
    return "L" if left % 2 else "R"


# -- transfer artifacts ---------------------------------------------------


def read_csv(path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def expected_table(runs: list[dict], budget: int) -> tuple[list[list[str]], str]:
    """The documented aggregation: per (env, method), failed runs are charged
    the full budget; when failures are the majority the mean shows >budget.
    Steps are in thousands with one decimal; std is the population std."""
    order = ["ease_reward", "ease_barrier", "naive", "l2sp", "random"]
    groups: dict[tuple[str, str], list[dict]] = {}
    for r in runs:
        groups.setdefault((r["env"], r["method"]), []).append(r)
    rows = []
    for env, method in sorted(groups, key=lambda k: (k[0], order.index(k[1]), k[1])):
        rs = groups[(env, method)]
        charged = [r["total_steps"] if r["converged"] else budget for r in rs]
        fails = sum(not r["converged"] for r in rs)
        if 2 * fails > len(rs):
            mean, std, marker = ">budget", "-", ">budget"
        else:
            mean = f"{statistics.fmean(charged) / 1000:.1f}"
            std = f"{statistics.pstdev(charged) / 1000:.1f}"
            marker = ""
        rows.append([method, env, str(len(rs)), str(fails), mean, std, marker])
    header = ["method", "env", "runs", "fails", "mean_ksteps", "std_ksteps", "marker"]
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    lines = [header, ["-" * w for w in widths]] + rows
    text = "".join(
        "  ".join(v.ljust(w) for v, w in zip(line, widths)).rstrip() + "\n" for line in lines
    )
    return [header] + rows, text


def parse_runs(rows: list[list[str]]) -> list[dict]:
    header = rows[0]
    out = []
    for raw in rows[1:]:
        d = dict(zip(header, raw))
        out.append({
            "method": d["method"],
            "env": d["env"],
            "seed": int(d["seed"]),
            "total_steps": int(d["total_steps"]),
            "converged": d["converged"] == "1",
            "stage_steps": [int(s) for s in d["stage_steps"].split(";") if s],
            "final_label": d["final_label"],
        })
    return out


def check_transfer_grid(runs, methods, seeds, budget, table_rows, table_text) -> list[str]:
    errors = []
    got = sorted((r["method"], r["seed"]) for r in runs)
    want = sorted((m, s) for m in methods for s in seeds)
    if got != want:
        errors.append(f"runs.csv has rows {got}, expected one per method x seed {want}")
    for r in runs:
        tag = f"{r['method']} seed {r['seed']}"
        if sum(r["stage_steps"]) != r["total_steps"]:
            errors.append(f"{tag}: stage steps {r['stage_steps']} do not sum to {r['total_steps']}")
        if not 0 < r["total_steps"] <= budget:
            errors.append(f"{tag}: total_steps {r['total_steps']} outside (0, {budget}]")
    want_rows, want_text = expected_table(runs, budget)
    if table_rows != want_rows:
        errors.append(f"table.csv {table_rows} != recomputed {want_rows}")
    if table_text != want_text:
        errors.append(f"table.txt differs from the recomputed table:\n{table_text}\n---\n{want_text}")
    return errors


def check_converged_path(points, rect, target: str, final_label: str) -> list[str]:
    """A converged run's final mean trajectory avoids the barrier and passes
    it on the target side; its reported class is the target class."""
    errors = []
    if path_touches_rects(points, [rect]):
        errors.append("final mean trajectory touches the barrier")
    side = side_passed(points, rect)
    if side != target:
        errors.append(f"final mean trajectory passes on side {side}, target {target}")
    if final_label != target:
        errors.append(f"final_label {final_label!r} is not the target class {target!r}")
    return errors


# -- landscape ------------------------------------------------------------


class LandscapeSim:
    """The landscape car written out again: unicycle kinematics, a linear
    Gaussian policy on the position features, the nav1 shaping reward,
    reward-to-go and the Gaussian log-probability."""

    # landscape_make's documented defaults
    horizon, discount, penalty = 100, 0.99, 1000.0
    dt, v_set, kp, steer_max = 0.1, 2.0, 2.0, 1.5
    c_side, c_goal, goal_bonus = 0.3, 2.0, 50.0
    goal = (-10.0, 8.0, 10.0, 10.0)

    def __init__(self, barrier_width: float, target_left: bool = True):
        self.rect = (-barrier_width / 2, -1.0, barrier_width / 2, 1.0)
        self.target_left = target_left

    @staticmethod
    def _inside(rect, x, y) -> bool:
        x0, y0, x1, y1 = rect
        return x0 - EPS <= x <= x1 + EPS and y0 - EPS <= y <= y1 + EPS

    def episode(self, theta, log_std, tape):
        """Simulate one episode; returns the rewards without penalty, whether
        each step ends in the barrier, and the log-probabilities."""
        x, y, h, v, t = 0.0, -8.0, math.pi / 2, 0.0, 0
        std = math.exp(log_std)
        base, hit, logp = [], [], []
        while True:
            mean = theta[0] * x / 10.0 + theta[1] * y / 10.0
            noise = float(tape[t, 0])
            action = mean + std * noise
            z = (action - mean) / std
            logp.append(-log_std - 0.5 * z * z - 0.5 * math.log(2 * math.pi))
            omega = min(1.0, max(-1.0, action)) * self.steer_max
            h2 = h + omega * self.dt
            v2 = v + self.kp * (self.v_set - v) * self.dt
            x2 = x + v2 * math.cos(h2) * self.dt
            y2 = y + v2 * math.sin(h2) * self.dt
            tn = t / self.horizon
            side = 1.0 if self.target_left else -1.0
            r = self.c_side * (1 - tn) * side * math.sin(h2 - math.pi / 2)
            r += -self.c_goal * tn * max(0.0, self.goal[1] - y2) / 16.0
            in_goal = self._inside(self.goal, x2, y2)
            if in_goal:
                r += self.goal_bonus
            base.append(r)
            hit.append(self._inside(self.rect, x2, y2))
            x, y, h, v, t = x2, y2, h2, v2, t + 1
            if in_goal or t >= self.horizon:
                return base, hit, logp

    def reward_to_go(self, rewards):
        out, acc = [0.0] * len(rewards), 0.0
        for k in range(len(rewards) - 1, -1, -1):
            acc = rewards[k] + self.discount * acc
            out[k] = acc
        return out

    def cell(self, theta, log_std, tapes):
        """Mean loss with the barrier on and off, and whether any episode
        entered the barrier."""
        totals = {"barrier": 0.0, "free": 0.0}
        entered = False
        for tape in tapes:
            base, hit, logp = self.episode(theta, log_std, tape)
            entered = entered or any(hit)
            for key, pen in (("barrier", self.penalty), ("free", 0.0)):
                g = self.reward_to_go([b - (pen if h else 0.0) for b, h in zip(base, hit)])
                totals[key] += float(np.sum(np.array(g) * np.array(logp)))
        return {k: v / len(tapes) for k, v in totals.items()}, entered


def bilinear_segment_max(thetas, loss, p0, p1, samples=101) -> float:
    """Maximum of the bilinearly interpolated surface along p0 -> p1."""
    lo, hi, n = thetas[0], thetas[-1], len(thetas)
    step = (hi - lo) / (n - 1)
    best = -math.inf
    for k in range(samples):
        s = k / (samples - 1)
        fx = (min(max(p0[0] + s * (p1[0] - p0[0]), lo), hi) - lo) / step
        fy = (min(max(p0[1] + s * (p1[1] - p0[1]), lo), hi) - lo) / step
        i, j = min(int(fx), n - 2), min(int(fy), n - 2)
        ax, ay = fx - i, fy - j
        v = (loss[i][j] * (1 - ax) * (1 - ay) + loss[i + 1][j] * ax * (1 - ay)
             + loss[i][j + 1] * (1 - ax) * ay + loss[i + 1][j + 1] * ax * ay)
        best = max(best, v)
    return best


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# -- trajectory sets and matchings -----------------------------------------


def resample(points, length: int) -> np.ndarray:
    """Arc-length-uniform resampling that keeps both endpoints."""
    pts = np.asarray(points, dtype=float)
    seg = np.hypot(*np.diff(pts, axis=0).T)
    s = np.concatenate(([0.0], np.cumsum(seg)))
    if s[-1] <= 0.0:
        return np.repeat(pts[:1], length, axis=0)
    keep = np.concatenate(([True], seg > 0.0))
    targets = np.linspace(0.0, s[-1], length)
    out = np.stack([np.interp(targets, s[keep], pts[keep, 0]),
                    np.interp(targets, s[keep], pts[keep, 1])], axis=1)
    out[0], out[-1] = pts[0], pts[-1]
    return out


def distance_matrix(set_a, set_b, length: int) -> np.ndarray:
    """Sup-over-time Euclidean distance between every pair of resampled paths."""
    a = np.stack([resample(p, length) for p in set_a])
    b = np.stack([resample(p, length) for p in set_b])
    d = np.empty((len(a), len(b)))
    for i in range(len(a)):
        d[i] = np.sqrt(np.sum((b - a[i]) ** 2, axis=2)).max(axis=1)
    return d


def max_matching_size(allowed: np.ndarray) -> int:
    """Maximum bipartite matching on a boolean matrix (rows to columns), by
    augmenting paths searched with an explicit stack."""
    n_rows, n_cols = allowed.shape
    adj = [np.flatnonzero(allowed[i]).tolist() for i in range(n_rows)]
    match_col = [-1] * n_cols  # column -> row
    match_row = [-1] * n_rows  # row -> column
    size = 0
    for root in range(n_rows):
        seen = [False] * n_cols
        via = {}  # column -> the row it was reached from
        stack = [root]
        free = -1
        while stack and free < 0:
            u = stack.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    via[v] = u
                    if match_col[v] == -1:
                        free = v
                        break
                    stack.append(match_col[v])
        if free < 0:
            continue
        v = free
        while v != -1:  # flip the alternating path back to the root
            u = via[v]
            v_next = match_row[u]
            match_col[v], match_row[u] = u, v
            v = v_next
        size += 1
    return size


def check_bottleneck(dist: np.ndarray, value: float, assignment, tol=1e-12) -> list[str]:
    """The value is an entry of the matrix, the assignment is a permutation
    attaining it, and no perfect matching uses only smaller entries."""
    n = dist.shape[0]
    errors = []
    if sorted(assignment) != list(range(n)):
        return [f"assignment is not a permutation of 0..{n - 1}"]
    if not np.any(np.abs(dist - value) <= tol):
        errors.append(f"value {value!r} is not an entry of the distance matrix")
    attained = max(dist[i, assignment[i]] for i in range(n))
    if abs(attained - value) > tol:
        errors.append(f"assignment attains {attained!r}, not the returned {value!r}")
    if max_matching_size(dist < value - tol) == n:
        errors.append(f"a perfect matching exists below {value!r}")
    return errors


def brute_force_bottleneck(dist: np.ndarray) -> float:
    n = dist.shape[0]
    return min(max(dist[i, p[i]] for i in range(n)) for p in itertools.permutations(range(n)))
