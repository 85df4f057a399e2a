"""The three workloads.  Each has `setup(seed, round, workdir)` (inputs made
from the seed; timed as set-up), `run(inputs)` (the operations, timed) and
`check(inputs, result)` (the independent output checks in checks.py).
An operation that raises or exits non-zero counts as failed; its outputs are
not checked and its work is not counted."""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys

import numpy as np

import checks
import easerl.cli
import easerl.config
import easerl.envs
import easerl.errors
import easerl.homotopy
import easerl.rl
import easerl.seeding


def mix(*labels) -> int:
    """A 31-bit seed for the label path; independent of easerl.seeding."""
    return int(hashlib.sha256(repr(labels).encode()).hexdigest()[:8], 16) >> 1


def attempt(op, *args) -> tuple[object, int]:
    """Runs one operation: (its result, 0), or (None, 1) when it raises."""
    try:
        return op(*args), 0
    except Exception as exc:
        print(f"perfbench: {op.__name__} failed: {exc!r}", file=sys.stderr)
        return None, 1


def _cli(argv: list[str]) -> bool:
    """Runs one easerl command; True when it exits with code 0."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = easerl.cli.main(argv)
    if code != 0:
        print(f"perfbench: easerl {argv[0]} exited with code {code}", file=sys.stderr)
    return code == 0


def _write_config(cfg: dict, path: str) -> None:
    with open(path, "w") as f:
        f.write(easerl.config.serialize_config(cfg))


class TransferNav1:
    """`easerl transfer` on the README quick-start grid: nav1-7, target side
    left, methods ease_barrier and naive, the bundled nav1-7 source, one
    training seed per round drawn from the benchmark seed."""

    name = "transfer-nav1"
    source = os.path.join("assets", "source-nav1-7.json")
    rect = (-3.5, -1.0, 3.5, 1.0)  # the nav1-7 barrier, closed

    def setup(self, seed: int, rnd: int, workdir: str) -> dict:
        cfg = easerl.config.nav1_defaults(7, "left")
        easerl.rl.load_checkpoint(self.source)  # the source must load before the run
        train_seed = mix(seed, self.name, rnd) % 1_000_000
        cfg["transfer"]["source_checkpoint"] = self.source
        cfg["transfer"]["seeds"] = [train_seed]
        cfg = easerl.config.validate_config(cfg)
        path = os.path.join(workdir, "nav1.yaml")
        _write_config(cfg, path)
        return {"config": path, "cfg": cfg, "out": os.path.join(workdir, "run")}

    def run(self, inp: dict) -> dict:
        argv = ["transfer", "--config", inp["config"], "--out", inp["out"], "--workers", "1"]
        cfg = inp["cfg"]
        n_ops = len(cfg["transfer"]["methods"]) * len(cfg["transfer"]["seeds"])
        ok, _ = attempt(_cli, argv)
        if not ok:
            return {"attempted": n_ops, "failed": n_ops, "work": 0}
        runs = checks.parse_runs(checks.read_csv(os.path.join(inp["out"], "runs.csv")))
        notes = [f"{r['method']} seed {r['seed']}: converged={int(r['converged'])} "
                 f"total_steps={r['total_steps']}" for r in runs]
        return {"attempted": n_ops, "failed": 0, "work": sum(r["total_steps"] for r in runs),
                "runs": runs, "notes": notes}

    def check(self, inp: dict, res: dict) -> list[str]:
        if res["failed"]:
            return []
        out, xf = inp["out"], inp["cfg"]["transfer"]
        runs = res["runs"]
        errors = checks.check_transfer_grid(
            runs, xf["methods"], xf["seeds"], xf["budget"],
            checks.read_csv(os.path.join(out, "table.csv")),
            open(os.path.join(out, "table.txt")).read(),
        )
        for r in runs:
            if r["method"] != "ease_barrier" or not r["converged"]:
                continue
            last = f"stage-{len(r['stage_steps']) - 2}"
            rows = checks.read_csv(os.path.join(out, "trajs", f"ease_barrier-{r['seed']}-{last}.csv"))
            points = [(float(row[1]), float(row[2])) for row in rows[1:]]
            errors += [f"ease_barrier seed {r['seed']}: {e}" for e in
                       checks.check_converged_path(points, self.rect, "L", r["final_label"])]
        return errors


class Landscape:
    """`easerl landscape` on the default landscape block (24x24 grid, both
    rewards) with 5 samples per cell instead of 10, and the config seed drawn
    from the benchmark seed."""

    name = "landscape"
    samples = 5
    check_cells = 8  # recomputed per round, chosen from the seed
    rel_tol = 1e-9

    def setup(self, seed: int, rnd: int, workdir: str) -> dict:
        cfg = easerl.config.default_config()
        cfg["seed"] = mix(seed, self.name, rnd) % 1_000_000
        cfg["landscape"]["samples_per_cell"] = self.samples
        cfg = easerl.config.validate_config(cfg)
        path = os.path.join(workdir, "landscape.yaml")
        _write_config(cfg, path)
        land = cfg["landscape"]
        n = int(round((land["hi"] - land["lo"]) / land["bucket"])) + 1
        rng = np.random.default_rng(mix(seed, self.name, rnd, "cells"))
        cells = [(0, 0), (n - 1, n - 1)] + [
            tuple(int(v) for v in rng.integers(0, n, 2)) for _ in range(self.check_cells - 2)
        ]
        return {"config": path, "cfg": cfg, "out": os.path.join(workdir, "run"), "n": n,
                "cells": cells}

    def run(self, inp: dict) -> dict:
        ok, _ = attempt(_cli, ["landscape", "--config", inp["config"], "--out", inp["out"]])
        if not ok:
            return {"attempted": 1, "failed": 1, "work": 0}
        # episodes scored: every (cell, sample) trajectory under both rewards
        trajectories = inp["n"] ** 2 * self.samples
        return {"attempted": 1, "failed": 0, "work": 2 * trajectories,
                "trajectories": trajectories}

    def _read_surface(self, path, n):
        rows = checks.read_csv(path)[1:]
        if len(rows) != n * n:
            raise ValueError(f"{path}: {len(rows)} rows, expected {n * n}")
        thetas = [float(r[1]) for r in rows[:n]]
        return thetas, np.array([float(r[2]) for r in rows]).reshape(n, n)

    def check(self, inp: dict, res: dict) -> list[str]:
        if res["failed"]:
            return []
        cfg, n = inp["cfg"], inp["n"]
        land = cfg["landscape"]
        errors = []
        thetas, loss_b = self._read_surface(os.path.join(inp["out"], "landscape_barrier.csv"), n)
        _, loss_f = self._read_surface(os.path.join(inp["out"], "landscape_free.csv"), n)
        grid = [land["lo"] + land["bucket"] * k for k in range(n)]
        if not all(checks.close(a, b, 1e-12) for a, b in zip(thetas, grid)):
            errors.append(f"grid {thetas} is not lo + bucket * k")
        sim = checks.LandscapeSim(land["barrier_size"], target_left=True)
        for i, j in inp["cells"]:
            tapes = [
                easerl.seeding.rng_for(
                    easerl.seeding.derive_seed(cfg["seed"], "cell", i, j, "ep", e), "noise"
                ).standard_normal((sim.horizon, 1))
                for e in range(self.samples)
            ]
            want, entered = sim.cell((grid[i], grid[j]), land["log_std"], tapes)
            for key, got in (("barrier", loss_b[i, j]), ("free", loss_f[i, j])):
                if not checks.close(got, want[key], self.rel_tol):
                    errors.append(f"cell ({i},{j}) {key}: {got!r} != recomputed {want[key]!r}")
            if not entered and loss_b[i, j] != loss_f[i, j]:
                errors.append(f"cell ({i},{j}) never enters the barrier but the losses differ")
        p0, p1 = land["theta_source"], land["theta_target"]
        max_b = checks.bilinear_segment_max(thetas, loss_b, p0, p1)
        max_f = checks.bilinear_segment_max(thetas, loss_f, p0, p1)
        if not max_b >= 2.0 * max_f:
            errors.append(f"segment max with barrier {max_b} < 2 x without {max_f}")
        return errors


# ---------------------------------------------------------------------------
# trajectory-analysis inputs: paths built from random waypoints whose class
# and collision status follow from where the waypoints lie

NAV1_RECTS = [(-3.5, -1.0, 3.5, 1.0)]
NAV2_RECTS = [(-4.5, -5.5, 4.5, -1.5), (-4.5, 1.5, 4.5, 5.5)]
POINTS = 129  # the 128-step horizon plus the start state


def _along(waypoints, rng) -> np.ndarray:
    """POINTS samples along the waypoint polyline at uneven arc-length steps."""
    wp = np.asarray(waypoints, dtype=float)
    s = np.concatenate(([0.0], np.cumsum(np.hypot(*np.diff(wp, axis=0).T))))
    steps = rng.uniform(0.5, 1.5, POINTS - 1)
    targets = np.concatenate(([0.0], np.cumsum(steps))) * (s[-1] / steps.sum())
    targets[-1] = s[-1]
    return np.stack([np.interp(targets, s, wp[:, 0]), np.interp(targets, s, wp[:, 1])], axis=1)


def nav1_path(rng, side: str | None) -> np.ndarray:
    """side 'L'/'R': goes around the barrier on that side, 0.6 clear of it;
    None: a straight climb through the barrier's interior."""
    if side is None:
        xa, xb = rng.uniform(-3.0, 3.0, 2)
    else:
        sign = -1.0 if side == "L" else 1.0
        xa, xb = sign * rng.uniform(4.1, 8.0, 2)
    wps = [(0.0, -8.0), (xa, rng.uniform(-4.0, -2.5)), (xb, rng.uniform(2.5, 4.0)),
           (rng.uniform(-0.5, 0.5), rng.uniform(9.0, 9.8))]
    return _along(wps, rng)


def nav2_path(rng, label: str | None, hit: int = 0) -> np.ndarray:
    """label 'LR' etc: passes the bottom part then the top part on those
    sides through the central gap, 0.5 clear of both; None: climbs straight
    through part `hit` (0 bottom, 1 top)."""
    sides = label or ("LR"[rng.integers(2)] + "LR"[rng.integers(2)])
    xs = [(-1.0 if c == "L" else 1.0) * rng.uniform(5.1, 8.0, 2) for c in sides]
    if label is None:
        xs[hit] = rng.uniform(-4.0, 4.0, 2)
    wps = [(0.0, -8.0), (xs[0][0], rng.uniform(-7.2, -6.2)), (xs[0][1], rng.uniform(-1.0, -0.6)),
           (xs[1][0], rng.uniform(0.6, 1.0)), (xs[1][1], rng.uniform(6.2, 7.2)),
           (rng.uniform(-0.5, 0.5), rng.uniform(9.0, 9.8))]
    return _along(wps, rng)


def make_set(rng, region: str, n: int, ref_label: str) -> list[tuple[np.ndarray, str | None]]:
    """n labelled paths, about a fifth of them colliding; the first is a
    clean path of class ref_label."""
    out = []
    for k in range(n):
        collide = k > 0 and rng.random() < 0.2
        if region == "nav1-7":
            label = None if collide else (ref_label if k == 0 else "LR"[rng.integers(2)])
            out.append((nav1_path(rng, label), label))
        else:
            if collide:
                out.append((nav2_path(rng, None, int(rng.integers(2))), None))
            else:
                label = ref_label if k == 0 else "LR"[rng.integers(2)] + "LR"[rng.integers(2)]
                out.append((nav2_path(rng, label), label))
    return out


class TrajectoryAnalysis:
    """Classify generated paths with collides, signature and same_class on
    the nav1-7 and nav2 regions, and match two sets of `set_size` paths per
    region with w_infinity_matching; small sets are also brute-forced."""

    name = "trajectory-analysis"
    set_size = 256
    small_size = 6
    refs = {"nav1-7": "L", "nav2": "LL"}  # class of each set's first path

    def setup(self, seed: int, rnd: int, workdir: str) -> dict:
        envs = {"nav1-7": easerl.envs.nav1_make(7, "left"), "nav2": easerl.envs.nav2_make("LL")}
        inp = {}
        for region, env in envs.items():
            rng = np.random.default_rng(mix(seed, self.name, rnd, region))
            sets = []
            for _ in range(2):
                paths = make_set(rng, region, self.set_size, self.refs[region])
                sets.append((paths, [easerl.homotopy.Trajectory(p) for p, _ in paths]))
            inp[region] = {"region": env.barrier, "anchors": env.anchors(), "sets": sets}
        return inp

    @staticmethod
    def classify(t, ref, barrier, a0, a1) -> tuple[str, object]:
        """(class label, same_class as ref), or ("collides", None); a colliding
        path whose signature does not raise gets that complaint instead of None."""
        h = easerl.homotopy
        if h.collides(t, barrier):
            try:
                h.signature(t, barrier, a0, a1)
                return "collides", "signature did not raise"
            except easerl.errors.CollidingTrajectory:
                return "collides", None
        return h.signature(t, barrier, a0, a1).label(), h.same_class(t, ref, barrier, a0, a1)

    def run(self, inp: dict) -> dict:
        h = easerl.homotopy
        attempted = failed = done = 0
        result = {}
        for region, data in inp.items():
            barrier, (a0, a1) = data["region"], data["anchors"]
            ref = data["sets"][0][1][0]
            labels = []  # None for a classification that failed
            for _, trajs in data["sets"]:
                for t in trajs:
                    label, f = attempt(self.classify, t, ref, barrier, a0, a1)
                    labels.append(label)
                    attempted, failed, done = attempted + 1, failed + f, done + 1 - f
            (_, ta), (_, tb) = data["sets"]
            k = self.small_size
            big, f_big = attempt(h.w_infinity_matching, h.EmpiricalDistribution(tuple(ta)),
                                 h.EmpiricalDistribution(tuple(tb)))
            small, f_small = attempt(h.w_infinity_matching, h.EmpiricalDistribution(tuple(ta[-k:])),
                                     h.EmpiricalDistribution(tuple(tb[-k:])))
            attempted, failed = attempted + 2, failed + f_big + f_small
            done += 0 if f_big else 2 * self.set_size
            result[region] = {"labels": labels, "big": big, "small": small}
        # work: paths analysed, each classified once and matched once (1024 a round)
        return {"attempted": attempted, "failed": failed, "work": done / 2, **result}

    def check(self, inp: dict, res: dict) -> list[str]:
        errors = []
        for region, data in inp.items():
            ref_label = self.refs[region]
            paths = data["sets"][0][0] + data["sets"][1][0]
            for k, ((_, label), got_same) in enumerate(zip(paths, res[region]["labels"])):
                if got_same is None:
                    continue
                got, same = got_same
                want = "collides" if label is None else label
                if got != want:
                    errors.append(f"{region} path {k}: classified {got}, built as {want}")
                elif label is None and same is not None:
                    errors.append(f"{region} path {k}: {same}")
                elif label is not None and same != (label == ref_label):
                    errors.append(f"{region} path {k}: same_class {same}, labels {label}/{ref_label}")
            (pa, _), (pb, _) = data["sets"]
            if res[region]["big"] is not None:
                value, assignment = res[region]["big"]
                dist = checks.distance_matrix([p for p, _ in pa], [p for p, _ in pb], POINTS)
                errors += [f"{region} matching: {e}"
                           for e in checks.check_bottleneck(dist, value, assignment)]
            k = self.small_size
            if res[region]["small"] is not None:
                value, assignment = res[region]["small"]
                dist = checks.distance_matrix([p for p, _ in pa[-k:]], [p for p, _ in pb[-k:]], POINTS)
                errors += [f"{region} small matching: {e}"
                           for e in checks.check_bottleneck(dist, value, assignment)]
                brute = checks.brute_force_bottleneck(dist)
                if abs(brute - value) > 1e-12:
                    errors.append(f"{region} small matching: {value!r} != brute force {brute!r}")
        return errors


WORKLOADS = {w.name: w for w in (TransferNav1(), Landscape(), TrajectoryAnalysis())}
