"""Experiment harness: builds jobs from a config, runs them in lockstep
(optionally dealt over processes), and writes every artifact a run produces.

Output layout for a transfer experiment:

    out/
      config.yaml     validated config snapshot (the round-trip source)
      manifest.yaml   config hash, base seed, tool version; no timestamps
      runs.csv        one row per (method, seed): methods in report order,
                      each method's seeds in the order transfer.seeds lists them
      table.csv       aggregate per method
      table.txt       the same table, fixed-width text
      curves/         per-run (step, mean eval return) series
      trajs/          per-run, per-stage mean-policy trajectories
      plots/          SVG figures (when output.plots is true)

Tables are rebuilt from config.yaml plus runs.csv alone, so regenerating
them on a different machine is bit-identical.
"""

from __future__ import annotations

import csv
import io
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import yaml

from . import __version__
from .config import config_hash, read_file, serialize_config
from .curriculum import (
    CURRICULA,
    TransferJob,
    TransferReport,
    method_rank,
    run_transfer,  # noqa: F401  (wrapped here by perfbench/tracing.py)
    stage_labels,
    transfer,
    validate_schedule,
)
from .envs import (
    RewardSpec, full_reward, landscape_make, mean_rollout, nav1_barrier, nav1_make, nav2_make,
    serve,
)
from .errors import ConfigError, MissingCheckpoint, MissingData, PreconditionViolated
from .homotopy import Trajectory, save_trajectory, trajectory_from_csv
from .plots import plot_curves, plot_landscape, plot_trajectories
from .rl import (
    Arch,
    ConvergenceBand,
    GridSpec,
    TrainConfig,
    hump_height,
    init_policy,
    landscape_scan,
    load_checkpoint,
    save_checkpoint,
    segment_profile,
    train,
)
from .seeding import derive_seed


def env_from_config(cfg: dict):
    env = cfg["environment"]
    if env["name"] == "nav1":
        return nav1_make(env["barrier_size"], env["target_side"])
    return nav2_make(env["target_side"])


def schedule_from_config(cfg: dict, env) -> dict[str, tuple[RewardSpec, ...] | None]:
    """Each curriculum's schedule, built and checked once per grid before any
    training runs: `ease_reward` ramps the weight on the full barrier through
    `transfer.schedule.alphas`, `ease_barrier` grows the nav1 barrier through
    `barrier_sizes` (None when empty: the subsets are found automatically).
    A list that is given is checked whichever methods run; one that breaks
    its defining inequalities, or a method whose list cannot serve it, is a
    config error."""
    methods = cfg["transfer"]["methods"]
    sc = cfg["transfer"]["schedule"]
    if "ease_reward" in methods and not sc["alphas"]:
        raise ConfigError("ease_reward needs transfer.schedule.alphas")
    # barrier_sizes are nav1 widths, and the automatic search needs one barrier part
    if cfg["environment"]["name"] != "nav1" and ("ease_barrier" in methods or sc["barrier_sizes"]):
        raise ConfigError(
            "ease_barrier and transfer.schedule.barrier_sizes need environment.name: nav1")
    schedules = {}
    for method, key, stage in (
        ("ease_reward", "alphas", lambda a: RewardSpec(env.barrier, float(a))),
        ("ease_barrier", "barrier_sizes", lambda v: RewardSpec(nav1_barrier(v), 1.0)),
    ):
        try:
            schedule = tuple(stage(v) for v in sc[key])
            if schedule:
                validate_schedule(schedule, env.barrier)
        except (ValueError, PreconditionViolated) as exc:
            raise ConfigError(f"transfer.schedule.{key}: {exc}") from exc
        schedules[method] = schedule or None
    return schedules


def _band(d: dict) -> ConvergenceBand:
    return ConvergenceBand(d["center"], d["half_width"], d["patience"])


def train_config(cfg: dict) -> TrainConfig:
    """The `training` block as the config of `easerl train`; transfer stages
    keep its learning rate, batch size and evaluation cadence."""
    tr = cfg["training"]
    return TrainConfig(
        seed=derive_seed(int(cfg["seed"]), "train"),
        max_interaction_steps=tr["max_steps"],
        convergence=_band(tr["convergence"]),
        learning_rate=tr["learning_rate"],
        batch_episodes=tr["batch_episodes"],
        eval_every=tr["eval_every"],
        eval_episodes=tr["eval_episodes"],
    )


def job_from_config(cfg: dict, env, source, seed: int, schedule) -> TransferJob:
    """One seed's transfer job under its method's `schedule` (None for a baseline)."""
    tr = cfg["training"]
    xf = cfg["transfer"]
    return TransferJob(
        env=env,
        source=source,
        seed=seed,
        budget=xf["budget"],
        schedule=schedule,
        relax_band=_band(xf["relax_convergence"]),
        stage_band=_band(xf["stage_convergence"]),
        final_band=_band(tr["convergence"]),
        training=train_config(cfg),
    )


def _serve_tasks(env, tasks: list) -> list[TransferReport]:
    """Run (method, job) tasks in lockstep: every engine call serves the
    pending request of each live run."""
    return serve(env, [transfer(job, method) for method, job in tasks])


def run_grid(cfg: dict, source, schedules: dict, workers: int = 1) -> list[TransferReport]:
    """Run the (method x seed) grid in lockstep, each curriculum's jobs sharing
    its entry of `schedules` and baselines getting None; `workers` processes
    each serve every workers-th task.  A run's bits, and the report order, do
    not depend on the worker count."""
    env = env_from_config(cfg)
    methods = sorted(cfg["transfer"]["methods"], key=method_rank)
    tasks = [
        (m, job_from_config(cfg, env, source, int(s), schedules.get(m)))
        for m in methods
        for s in cfg["transfer"]["seeds"]
    ]
    k = max(1, min(workers, len(tasks)))
    chunks = [tasks[i::k] for i in range(k)]
    if k == 1:
        done = [_serve_tasks(env, chunks[0])]
    else:
        with ProcessPoolExecutor(max_workers=k) as pool:
            done = list(pool.map(_serve_tasks, [env] * k, chunks))
    reports: list = [None] * len(tasks)
    for i, chunk_reports in enumerate(done):
        reports[i::k] = chunk_reports
    return reports


def open_run_dir(out_dir, cfg: dict) -> None:
    """Create the run directory and write its config snapshot and manifest."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.yaml"), "w") as f:
        f.write(serialize_config(cfg))
    write_manifest(out_dir, cfg)


def write_manifest(out_dir, cfg: dict) -> None:
    doc = {
        "config_hash": config_hash(cfg),
        "schema_version": cfg["schema_version"],
        "seed": cfg["seed"],
        "tool": "easerl",
        "version": __version__,
    }
    with open(os.path.join(out_dir, "manifest.yaml"), "w") as f:
        f.write(yaml.safe_dump(doc, sort_keys=True))


# The runs.csv format, one entry per column in file order:
# (column, TransferReport field, value -> text, text -> value).
RUNS_COLUMNS = (
    ("method", "method", str, str),
    ("env", "env_name", str, str),
    ("seed", "seed", str, int),
    ("total_steps", "total_steps", str, int),
    ("converged", "converged", lambda v: str(int(v)), lambda s: bool(int(s))),
    ("stage_steps", "stage_steps", lambda v: ";".join(map(str, v)),
     lambda s: tuple(int(x) for x in s.split(";") if x)),
    ("final_return", "final_return", repr, float),  # repr reads back exactly
    ("final_label", "final_label", str, str),  # empty: no collision-free final episode
)


def write_runs_csv(path, reports: list[TransferReport]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow([name for name, *_ in RUNS_COLUMNS])
        for r in reports:
            w.writerow([text(getattr(r, field)) for _, field, text, _ in RUNS_COLUMNS])


def _read_csv(path, what: str, convert) -> list:
    """`convert` of each row of a CSV file the run wrote; a row it cannot
    convert is a ConfigError naming the file."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    try:
        if any(None in row.values() for row in rows):
            raise ValueError("a row has fewer fields than the header")
        return [convert(row) for row in rows]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what} {path}: {exc}") from exc


def read_runs_csv(path) -> list[dict]:
    """runs.csv's rows, each a dict from column name to value."""
    if not os.path.exists(path):
        raise MissingData(f"missing runs file: {path}")
    return _read_csv(path, "runs file", lambda row: {
        name: value(row[name]) for name, _, _, value in RUNS_COLUMNS})


def build_table(rows: list[dict], budget: int) -> tuple[str, str]:
    """Aggregate rows into (table.csv text, table.txt text).

    Steps are reported in thousands to one decimal; failed runs are counted
    at the full budget; a method whose failures exceed half its seeds shows
    the >budget marker instead of a mean.  Std is the population std over
    the same clipped values.
    """
    groups: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        groups.setdefault((row["env"], row["method"]), []).append(row)

    table_rows = []
    for (env_name, method) in sorted(groups, key=lambda k: (k[0], method_rank(k[1]))):
        runs = groups[(env_name, method)]
        steps = np.array(
            [r["total_steps"] if r["converged"] else budget for r in runs], dtype=float
        )
        fails = sum(1 for r in runs if not r["converged"])
        n = len(runs)
        if fails * 2 > n:
            mean_s, std_s, marker = ">budget", "-", ">budget"
        else:
            mean_s = f"{steps.mean() / 1000.0:.1f}"
            std_s = f"{steps.std() / 1000.0:.1f}"
            marker = ""
        table_rows.append((method, env_name, str(n), str(fails), mean_s, std_s, marker))

    header = ("method", "env", "runs", "fails", "mean_ksteps", "std_ksteps", "marker")
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for row in table_rows:
        w.writerow(row)
    csv_text = buf.getvalue()

    widths = [max(len(header[i]), *(len(r[i]) for r in table_rows)) if table_rows else len(header[i]) for i in range(len(header))]
    def fmt(row):
        return "  ".join(str(v).ljust(widths[i]) for i, v in enumerate(row)).rstrip()
    lines = [fmt(header), fmt(["-" * wd for wd in widths])]
    lines += [fmt(r) for r in table_rows]
    return csv_text, "\n".join(lines) + "\n"


def _write_curve(path, curve) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["step", "mean_return"])
        for s, v in curve:
            w.writerow([s, repr(float(v))])


def write_run_artifacts(out_dir, reports: list[TransferReport]) -> None:
    curves_dir = os.path.join(out_dir, "curves")
    trajs_dir = os.path.join(out_dir, "trajs")
    os.makedirs(curves_dir, exist_ok=True)
    os.makedirs(trajs_dir, exist_ok=True)
    for r in reports:
        stem = f"{r.method}-{r.seed}"
        _write_curve(os.path.join(curves_dir, stem + ".csv"), r.curve)
        for label, traj in r.stage_trajectories:
            save_trajectory(os.path.join(trajs_dir, f"{stem}-{label}.csv"), traj)


def rebuild_tables(out_dir, cfg: dict) -> None:
    rows = read_runs_csv(os.path.join(out_dir, "runs.csv"))
    csv_text, txt = build_table(rows, cfg["transfer"]["budget"])
    with open(os.path.join(out_dir, "table.csv"), "w") as f:
        f.write(csv_text)
    with open(os.path.join(out_dir, "table.txt"), "w") as f:
        f.write(txt)


def _read_curve(path) -> list[tuple[float, float]]:
    return _read_csv(path, "curve file", lambda r: (float(r["step"]), float(r["mean_return"])))


def read_trajectory(path) -> Trajectory:
    """A trajectory CSV; a missing or malformed file is a ConfigError naming it."""
    text = read_file(path, "trajectory file")
    try:
        return trajectory_from_csv(text)
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"bad trajectory file {path}: {exc}") from exc


def _plot_field(env, trajs, labels, path, title) -> str:
    """Trajectories drawn over the task's barrier and goal anchor; returns `path`."""
    goal = env.anchors()[1]
    plot_trajectories(trajs, labels, env.barrier, path, title=title,
                      goal_xy=(float(goal.x), float(goal.y)))
    return path


def render_plots(out_dir) -> list[str]:
    """Regenerate every SVG from the files already in the run directory."""
    cfg_path = os.path.join(out_dir, "config.yaml")
    if not os.path.exists(cfg_path):
        raise MissingData(f"missing config snapshot: {cfg_path}")
    from .config import load_config

    cfg = load_config(cfg_path)
    env = env_from_config(cfg)
    rows = read_runs_csv(os.path.join(out_dir, "runs.csv"))
    plots_dir = os.path.join(out_dir, "plots")
    os.makedirs(plots_dir, exist_ok=True)
    written = []

    methods = sorted({r["method"] for r in rows})
    # each method's run of its lowest seed, drawn on the shared field and by stage
    first = {m: min((r for r in rows if r["method"] == m), key=lambda r: r["seed"])
             for m in methods}

    def traj_path(m, label):
        return os.path.join(out_dir, "trajs", f"{m}-{first[m]['seed']}-{label}.csv")

    # final trajectory of each method, first seed, on one field
    finals, labels = [], []
    for m, row in first.items():
        path = traj_path(m, stage_labels(m, len(row["stage_steps"]))[-1])
        if os.path.exists(path):
            finals.append(read_trajectory(path))
            labels.append(m)
    if finals:
        written.append(_plot_field(env, finals, labels, os.path.join(plots_dir, "trajectories.svg"),
                                   f"{env.name}: final mean trajectories"))

    # learning curves, one figure per method, one line per seed
    for m in methods:
        curves, clabels = [], []
        for row in (r for r in rows if r["method"] == m):
            path = os.path.join(out_dir, "curves", f"{m}-{row['seed']}.csv")
            if os.path.exists(path):
                curves.append(_read_curve(path))
                clabels.append(f"seed {row['seed']}")
        if curves:
            p = os.path.join(plots_dir, f"curves-{m}.svg")
            plot_curves(curves, clabels, p, title=f"{env.name}: {m}")
            written.append(p)

    # per-stage snapshots for curriculum methods, first seed
    for m, row in first.items():
        if m not in CURRICULA:
            continue
        stage_trajs, slabels = [], []
        for label in stage_labels(m, len(row["stage_steps"])):
            path = traj_path(m, label)
            if os.path.exists(path):
                stage_trajs.append(read_trajectory(path))
                slabels.append(label)
        if stage_trajs:
            seed = row["seed"]
            written.append(_plot_field(env, stage_trajs, slabels,
                                       os.path.join(plots_dir, f"stages-{m}-seed{seed}.svg"),
                                       f"{env.name}: {m} stages (seed {seed})"))
    return written


def run_transfer_experiment(cfg: dict, out_dir, workers: int = 1) -> list[TransferReport]:
    env = env_from_config(cfg)
    schedules = schedule_from_config(cfg, env)
    # the source is checked against the task before any training
    ckpt = cfg["transfer"]["source_checkpoint"]
    if not ckpt:
        raise MissingCheckpoint("transfer.source_checkpoint is not set")
    if not os.path.exists(ckpt):
        raise MissingCheckpoint(f"source checkpoint not found: {ckpt}")
    try:
        source, _ = load_checkpoint(ckpt)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad source checkpoint {ckpt}: {exc}") from exc
    arch, spec = source.arch, env.spec
    if (arch.obs_dim, arch.action_dim) != (spec.state_dim, spec.action_dim):
        raise ConfigError(f"source checkpoint {ckpt} has obs_dim {arch.obs_dim}, action_dim "
                          f"{arch.action_dim}; {env.name} needs {spec.state_dim}, {spec.action_dim}")
    open_run_dir(out_dir, cfg)
    reports = run_grid(cfg, source, schedules, workers)
    write_runs_csv(os.path.join(out_dir, "runs.csv"), reports)
    write_run_artifacts(out_dir, reports)
    rebuild_tables(out_dir, cfg)
    if cfg["output"]["plots"]:
        render_plots(out_dir)
    return reports


def run_train(cfg: dict, out_dir):
    """Train a policy from scratch on the configured task and save it."""
    env = env_from_config(cfg)
    arch = Arch("mlp", env.spec.state_dim, env.spec.action_dim)
    seed = int(cfg["seed"])
    init = init_policy(arch, derive_seed(seed, "source"))
    report = train(env, full_reward(env), init, train_config(cfg))
    open_run_dir(out_dir, cfg)
    save_checkpoint(os.path.join(out_dir, "checkpoint.json"), report.params, seed)
    _write_curve(os.path.join(out_dir, "curve.csv"), report.return_curve)
    traj = mean_rollout(env, report.params, full_reward(env))
    save_trajectory(os.path.join(out_dir, "traj.csv"), traj)
    if cfg["output"]["plots"]:
        plots_dir = os.path.join(out_dir, "plots")
        os.makedirs(plots_dir, exist_ok=True)
        _plot_field(env, [traj], ["mean policy"], os.path.join(plots_dir, "traj.svg"),
                    f"{env.name}: trained mean trajectory")
        plot_curves([[(s, v) for s, v in report.return_curve]], ["train"],
                    os.path.join(plots_dir, "curve.svg"), title=f"{env.name}: training")
    return report


def _write_landscape_csv(path, thetas, loss) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["theta1", "theta2", "mean_loss"])
        for i, t1 in enumerate(thetas):
            for j, t2 in enumerate(thetas):
                w.writerow([repr(float(t1)), repr(float(t2)), repr(float(loss[i, j]))])


def run_landscape(cfg: dict, out_dir) -> dict:
    land = cfg["landscape"]
    try:
        env = landscape_make(land["barrier_size"], cfg["environment"]["target_side"])
    except ValueError as exc:
        raise ConfigError(f"environment.target_side: {exc}") from exc
    grid = GridSpec(land["lo"], land["hi"], land["bucket"])
    result = landscape_scan(
        env, grid, land["samples_per_cell"], int(cfg["seed"]), log_std=land["log_std"]
    )
    open_run_dir(out_dir, cfg)
    _write_landscape_csv(os.path.join(out_dir, "landscape_barrier.csv"), result.thetas, result.loss_barrier)
    _write_landscape_csv(os.path.join(out_dir, "landscape_free.csv"), result.thetas, result.loss_free)
    p_src = tuple(float(v) for v in land["theta_source"])
    p_tgt = tuple(float(v) for v in land["theta_target"])
    humps = {}
    for key, loss in (("barrier", result.loss_barrier), ("free", result.loss_free)):
        profile = segment_profile(result.thetas, loss, p_src, p_tgt)
        humps[key] = hump_height(profile)
    with open(os.path.join(out_dir, "hump.txt"), "w") as f:
        for key in ("barrier", "free"):
            f.write(f"{key} {humps[key]!r}\n")
    vlo = float(min(result.loss_barrier.min(), result.loss_free.min()))
    vhi = float(max(result.loss_barrier.max(), result.loss_free.max()))
    for key, loss in (("barrier", result.loss_barrier), ("free", result.loss_free)):
        plot_landscape(
            result.thetas, loss,
            os.path.join(out_dir, f"landscape_{key}.svg"),
            title=f"loss, barrier {'on' if key == 'barrier' else 'off'}",
            theta_source=p_src, theta_target=p_tgt, vmin=vlo, vmax=vhi,
        )
    return {"result": result, "humps": humps}
