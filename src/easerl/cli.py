"""Command-line front end.

Subcommands: train, transfer, landscape, homotopy, winf, plot.  Exit codes:
0 success (for homotopy: same class), 1 homotopy verdict "different class",
2 usage or configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np
import yaml

from .config import default_config, load_config, read_file, validate_config
from .errors import ConfigError, EaseRlError
from .envs import PENALTY
from .geometry import ConvexPolygon, Point2, RegionSet
from .homotopy import (
    EmpiricalDistribution,
    Trajectory,
    order_by_t,
    signature,
    w_infinity_matching,
)

EXIT_OK = 0
EXIT_DIFFERENT = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


def _add_common(p: argparse.ArgumentParser, *flags: str) -> None:
    if "config" in flags:
        p.add_argument("--config", help="YAML config file (defaults apply when omitted)")
    if "seed" in flags:
        p.add_argument("--seed", type=int, help="override the config seed")
    if "out" in flags:
        p.add_argument("--out", required=True, help="output directory")
    if "workers" in flags:
        p.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    if "budget" in flags:
        p.add_argument("--budget", type=int, help="override the per-run interaction budget")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="easerl",
        description="ease-in-ease-out transfer experiments on 2-D navigation tasks",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a policy from scratch, save a checkpoint")
    _add_common(t, "config", "seed", "out")

    x = sub.add_parser("transfer", help="run the (method x seed) transfer grid")
    _add_common(x, "config", "seed", "out", "workers", "budget")

    l = sub.add_parser("landscape", help="scan the 2-parameter loss landscape")
    _add_common(l, "config", "seed", "out")

    h = sub.add_parser("homotopy", help="compare the homotopy class of two trajectories")
    h.add_argument("--traj-a", required=True, help="trajectory CSV (t,x,y)")
    h.add_argument("--traj-b", required=True, help="trajectory CSV (t,x,y)")
    h.add_argument("--region", required=True, help="region YAML: penalty, parts, anchors")

    w = sub.add_parser("winf", help="bottleneck distance between two trajectory sets")
    w.add_argument("--set-a", required=True, help="trajectory-set CSV (traj,t,x,y)")
    w.add_argument("--set-b", required=True, help="trajectory-set CSV (traj,t,x,y)")
    w.add_argument("--length", type=int, help="common resampling length")

    g = sub.add_parser("plot", help="regenerate SVG plots from a run directory")
    g.add_argument("--run", required=True, help="experiment output directory")

    return p


def _load_cfg(args) -> dict:
    cfg = load_config(args.config) if args.config else validate_config(default_config())
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = int(args.seed)
        # a single overridden seed also narrows the transfer grid to that seed
        cfg["transfer"]["seeds"] = [int(args.seed)]
    if getattr(args, "budget", None) is not None:
        cfg["transfer"]["budget"] = int(args.budget)
        cfg["training"]["max_steps"] = int(args.budget)
    return validate_config(cfg)


def load_region_yaml(path) -> tuple[RegionSet, Point2, Point2]:
    """Region file: penalty, convex polygon parts, and the two anchors."""
    text = read_file(path, "region file")
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"region file is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("region file must be a mapping")
    unknown = set(doc) - {"penalty", "parts", "anchors"}
    if unknown:
        raise ConfigError(f"unknown region keys: {sorted(unknown)}")
    try:
        parts = tuple(
            ConvexPolygon.from_xy([(float(x), float(y)) for x, y in ring])
            for ring in doc["parts"]
        )
        region = RegionSet(parts, float(doc.get("penalty", PENALTY)))
        anchors = doc["anchors"]
        start = Point2(float(anchors["start"][0]), float(anchors["start"][1]))
        goal = Point2(float(anchors["goal"][0]), float(anchors["goal"][1]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad region file {path}: {exc}") from exc
    return region, start, goal


def _raise_first_bad_field(rows: list[list[str]], header: dict[str, int], width: int) -> None:
    """Raise the error of the first bad field in file order, reading each
    row's t, x and y in turn: a value that is not a number, or a row with
    fewer than `width` fields."""
    for i, row in enumerate(rows, start=1):
        for name in ("t", "x", "y"):
            if header[name] < len(row):
                float(row[header[name]])
        if len(row) < width:
            raise ValueError(f"data row {i} has {len(row)} fields, expected {width}")


def load_trajectory_set(path) -> EmpiricalDistribution:
    """CSV with a leading trajectory-id column: traj,t,x,y.  Trajectories
    are ordered by the numeric value of their id, and each one's rows by t."""
    lines = csv.reader(read_file(path, "trajectory set").splitlines())
    header = {name: k for k, name in enumerate(next(lines, []))}  # a repeated name: the last
    rows = list(filter(None, lines))  # blank lines are skipped
    if not rows or not {"traj", "t", "x", "y"} <= set(header):
        raise ConfigError(f"{path}: expected header traj,t,x,y")
    try:
        width = 1 + max(header[name] for name in ("traj", "t", "x", "y"))
        try:
            if min(map(len, rows)) < width:
                raise ValueError("a short row")
            columns = list(zip(*rows))
            t, x, y = (np.array(columns[header[name]], dtype=float) for name in ("t", "x", "y"))
        except ValueError:
            _raise_first_bad_field(rows, header, width)
            raise
        keys, first, group = np.unique(columns[header["traj"]], return_index=True,
                                       return_inverse=True)
        keys, appearance = keys.tolist(), np.argsort(first)
        ids = [float(keys[k]) for k in appearance]
        nan = [keys[k] for k, v in zip(appearance, ids) if math.isnan(v)]
        if nan:
            raise ValueError(f"trajectory id {nan[0]!r} is not a number")
        # rank by id; equal ids keep their order of appearance
        rank = np.empty(len(ids), dtype=int)
        rank[appearance[sorted(range(len(ids)), key=ids.__getitem__)]] = np.arange(len(ids))
        row_rank = rank[group]
        order = order_by_t(row_rank, t)
        points = np.stack([x[order], y[order]], axis=1)
        bounds = [0, *(np.flatnonzero(np.diff(row_rank[order])) + 1), len(order)]
        trajs = [Trajectory(points[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad trajectory set {path}: {exc}") from exc
    return EmpiricalDistribution(tuple(trajs))


def cmd_train(args) -> int:
    from .runner import run_train

    cfg = _load_cfg(args)
    report = run_train(cfg, args.out)
    status = "converged" if report.converged else "did not converge"
    print(f"train: {status} after {report.interaction_steps} steps -> {args.out}")
    return EXIT_OK


def cmd_transfer(args) -> int:
    from .runner import run_transfer_experiment

    cfg = _load_cfg(args)
    reports = run_transfer_experiment(cfg, args.out, workers=max(1, args.workers))
    for r in reports:
        status = "ok" if r.converged else "FAILED"
        print(
            f"{r.method} seed {r.seed}: {status} steps={r.total_steps} "
            f"return={r.final_return:.1f} class={r.final_label or '-'}"
        )
    print(f"wrote {args.out}/runs.csv and tables")
    return EXIT_OK


def cmd_landscape(args) -> int:
    from .runner import run_landscape

    cfg = _load_cfg(args)
    out = run_landscape(cfg, args.out)
    for key in ("barrier", "free"):
        print(f"hump[{key}] = {out['humps'][key]:.3f}")
    print(f"wrote {args.out}/landscape_barrier.csv and landscape_free.csv")
    return EXIT_OK


def cmd_homotopy(args) -> int:
    from .runner import read_trajectory

    region, start, goal = load_region_yaml(args.region)
    ta, tb = (read_trajectory(p) for p in (args.traj_a, args.traj_b))
    sa = signature(ta, region, start, goal)
    sb = signature(tb, region, start, goal)
    same = sa == sb
    print(f"trajectory A: class {sa.label()}")
    print(f"trajectory B: class {sb.label()}")
    print("verdict: same class" if same else "verdict: different class")
    return EXIT_OK if same else EXIT_DIFFERENT


def cmd_winf(args) -> int:
    if args.length is not None and args.length < 2:
        raise ConfigError(f"--length must be >= 2, got {args.length}")
    mu = load_trajectory_set(args.set_a)
    nu = load_trajectory_set(args.set_b)
    value, assignment = w_infinity_matching(mu, nu, args.length)
    print(f"w_infinity = {value!r}")
    for i, j in enumerate(assignment):
        print(f"match {i} -> {j}")
    return EXIT_OK


def cmd_plot(args) -> int:
    from .runner import render_plots

    written = render_plots(args.run)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "transfer": cmd_transfer,
    "landscape": cmd_landscape,
    "homotopy": cmd_homotopy,
    "winf": cmd_winf,
    "plot": cmd_plot,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize anything else
        return EXIT_USAGE if exc.code not in (0,) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EaseRlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
