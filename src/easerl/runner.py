"""Experiment harness: builds jobs from a config, runs them in lockstep
(optionally dealt over processes), and writes every artifact a run produces.

Output layout for a transfer experiment:

    out/
      config.yaml     validated config snapshot (the round-trip source)
      manifest.yaml   config hash, base seed, tool version; no timestamps
      runs.csv        one row per (method, seed), sorted
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
from .config import config_hash, serialize_config
from .curriculum import (
    CSV_HEADER,
    CURRICULA,
    CurriculumSchedule,
    FindSb1Config,
    TransferJob,
    TransferReport,
    method_rank,
    run_transfer,  # noqa: F401  (wrapped here by perfbench/tracing.py)
    stage_labels,
    transfer,
    validate_schedule,
)
from .envs import (
    angle_band, angle_make, full_reward, landscape_make, mean_rollout, nav1_make, nav2_make,
    serve,
)
from .errors import ConfigError, MissingCheckpoint, MissingData, PreconditionViolated
from .geometry import ConvexPolygon, RegionSet
from .homotopy import load_trajectory, save_trajectory
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
    if env["name"] == "nav2":
        return nav2_make(env["target_side"])
    return angle_make(env["target_side"])


def schedule_from_config(cfg: dict, env) -> CurriculumSchedule | None:
    """None means the barrier-set schedule is found automatically."""
    sc = cfg["transfer"]["schedule"]
    if sc["mode"] == "reward_weight":
        if not sc["alphas"]:
            raise ConfigError("reward_weight schedule needs transfer.schedule.alphas")
        return CurriculumSchedule("reward_weight", alphas=tuple(float(a) for a in sc["alphas"]))
    penalty = env.barrier.penalty
    if sc["barrier_sizes"]:
        if not env.name.startswith("nav1"):
            raise ConfigError("schedule.barrier_sizes only applies to nav1 environments")
        key = "barrier_sizes"

        def subset(s):
            return RegionSet((ConvexPolygon.rectangle(0.0, 0.0, float(s), 2.0),), penalty)
    elif sc["intervals"]:
        if env.name != "angle":
            raise ConfigError("schedule.intervals only applies to the angle environment")
        key = "intervals"
        span = env.spec.horizon * env.dt

        def subset(iv):
            return angle_band(float(iv[0]), float(iv[1]), span, penalty)
    else:
        return None
    try:
        subsets = tuple(subset(v) for v in sc[key])
    except ValueError as exc:
        raise ConfigError(f"transfer.schedule.{key}: {exc}") from exc
    return CurriculumSchedule("barrier_set", subsets=subsets)


def _check_schedule(cfg: dict) -> None:
    """Check that the schedule suits the methods, build it and check its
    defining inequalities, so a mismatch or a malformed schedule is a config
    error before any training runs."""
    methods = cfg["transfer"]["methods"]
    sc = cfg["transfer"]["schedule"]
    for method, mode in (("ease_reward", "reward_weight"), ("ease_barrier", "barrier_set")):
        if method in methods and sc["mode"] != mode:
            raise ConfigError(f"transfer.schedule.mode must be {mode} for method {method}")
    auto = not (sc["barrier_sizes"] or sc["intervals"])
    if "ease_barrier" in methods and auto and cfg["environment"]["name"] != "nav1":
        raise ConfigError(
            "ease_barrier without transfer.schedule.barrier_sizes or intervals "
            "searches the subsets automatically, which needs environment.name: nav1"
        )
    env = env_from_config(cfg)
    schedule = schedule_from_config(cfg, env)
    if schedule is None:
        return
    try:
        validate_schedule(schedule, env.barrier)
    except PreconditionViolated as exc:
        raise ConfigError(f"transfer.schedule: {exc}") from exc


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


def job_from_config(cfg: dict, env, source, seed: int) -> TransferJob:
    tr = cfg["training"]
    xf = cfg["transfer"]
    return TransferJob(
        env=env,
        source=source,
        seed=seed,
        budget=xf["budget"],
        schedule=schedule_from_config(cfg, env),
        relax_band=_band(xf["relax_convergence"]),
        stage_band=_band(xf["stage_convergence"]),
        final_band=_band(tr["convergence"]),
        training=train_config(cfg),
        l2sp_coeff=xf["l2sp_coeff"],
        find_cfg=FindSb1Config(**xf["find_sb1"]),
        auto_stages=xf["schedule"]["auto_stages"],
        final_eval_episodes=xf["final_eval_episodes"],
        log_std_init=tr["log_std_init"],
    )


def _serve_tasks(env, tasks: list) -> list[TransferReport]:
    """Run (method, job) tasks in lockstep: every engine call serves the
    pending request of each live run."""
    return serve(env, [transfer(job, method) for method, job in tasks])


def run_grid(cfg: dict, source, workers: int = 1) -> list[TransferReport]:
    """Run the (method x seed) grid in lockstep; `workers` processes each
    serve every workers-th task.  A run's bits, and the report order, do not
    depend on the worker count."""
    env = env_from_config(cfg)
    methods = sorted(cfg["transfer"]["methods"], key=method_rank)
    tasks = [
        (m, job_from_config(cfg, env, source, int(s)))
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


def _write_config_snapshot(out_dir, cfg: dict) -> None:
    with open(os.path.join(out_dir, "config.yaml"), "w") as f:
        f.write(serialize_config(cfg))


def write_runs_csv(path, reports: list[TransferReport]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_HEADER)
        for r in reports:
            w.writerow(r.csv_row())


def read_runs_csv(path) -> list[dict]:
    if not os.path.exists(path):
        raise MissingData(f"missing runs file: {path}")
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    out = []
    for row in rows:
        out.append(
            {
                "method": row["method"],
                "env": row["env"],
                "seed": int(row["seed"]),
                "total_steps": int(row["total_steps"]),
                "converged": bool(int(row["converged"])),
                "stage_steps": tuple(int(s) for s in row["stage_steps"].split(";") if s),
                "final_return": float(row["final_return"]),
                "final_label": row["final_label"],
            }
        )
    return out


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


def write_run_artifacts(out_dir, reports: list[TransferReport]) -> None:
    curves_dir = os.path.join(out_dir, "curves")
    trajs_dir = os.path.join(out_dir, "trajs")
    os.makedirs(curves_dir, exist_ok=True)
    os.makedirs(trajs_dir, exist_ok=True)
    for r in reports:
        stem = f"{r.method}-{r.seed}"
        with open(os.path.join(curves_dir, stem + ".csv"), "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["step", "mean_return"])
            for s, v in r.curve:
                w.writerow([s, repr(float(v))])
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
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    return [(float(r["step"]), float(r["mean_return"])) for r in rows]


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
    goal = env.anchors()[1]
    field_half = 10.0 if env.name.startswith(("nav", "landscape")) else max(
        abs(float(goal.x)), abs(float(goal.y)), 7.0
    )

    # final trajectory of each method, first seed, on one field
    finals, labels = [], []
    for m in methods:
        seed = min(r["seed"] for r in rows if r["method"] == m)
        row = next(r for r in rows if r["method"] == m and r["seed"] == seed)
        label = stage_labels(m, len(row["stage_steps"]))[-1]
        path = os.path.join(out_dir, "trajs", f"{m}-{seed}-{label}.csv")
        if os.path.exists(path):
            finals.append(load_trajectory(path))
            labels.append(m)
    if finals:
        p = os.path.join(plots_dir, "trajectories.svg")
        plot_trajectories(
            finals, labels, env.barrier, p,
            title=f"{env.name}: final mean trajectories",
            goal_xy=(float(goal.x), float(goal.y)), field_half=field_half,
        )
        written.append(p)

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
    for m in methods:
        if m not in CURRICULA:
            continue
        seed = min(r["seed"] for r in rows if r["method"] == m)
        row = next(r for r in rows if r["method"] == m and r["seed"] == seed)
        stage_trajs, slabels = [], []
        for label in stage_labels(m, len(row["stage_steps"])):
            path = os.path.join(out_dir, "trajs", f"{m}-{seed}-{label}.csv")
            if os.path.exists(path):
                stage_trajs.append(load_trajectory(path))
                slabels.append(label)
        if stage_trajs:
            p = os.path.join(plots_dir, f"stages-{m}-seed{seed}.svg")
            plot_trajectories(
                stage_trajs, slabels, env.barrier, p,
                title=f"{env.name}: {m} stages (seed {seed})",
                goal_xy=(float(goal.x), float(goal.y)), field_half=field_half,
            )
            written.append(p)
    return written


def run_transfer_experiment(cfg: dict, out_dir, workers: int = 1) -> list[TransferReport]:
    _check_schedule(cfg)
    ckpt = cfg["transfer"]["source_checkpoint"]
    if not ckpt:
        raise MissingCheckpoint("transfer.source_checkpoint is not set")
    if not os.path.exists(ckpt):
        raise MissingCheckpoint(f"source checkpoint not found: {ckpt}")
    source, _ = load_checkpoint(ckpt)
    os.makedirs(out_dir, exist_ok=True)
    reports = run_grid(cfg, source, workers)
    _write_config_snapshot(out_dir, cfg)
    write_manifest(out_dir, cfg)
    write_runs_csv(os.path.join(out_dir, "runs.csv"), reports)
    write_run_artifacts(out_dir, reports)
    rebuild_tables(out_dir, cfg)
    if cfg["output"]["plots"]:
        render_plots(out_dir)
    return reports


def run_train(cfg: dict, out_dir):
    """Train a policy from scratch on the configured task and save it."""
    env = env_from_config(cfg)
    tr = cfg["training"]
    arch = Arch(tr["arch"], env.spec.state_dim, env.spec.action_dim, tr["hidden"])
    seed = int(cfg["seed"])
    init = init_policy(arch, derive_seed(seed, "source"), log_std_init=tr["log_std_init"])
    report = train(env, full_reward(env), init, train_config(cfg))
    os.makedirs(out_dir, exist_ok=True)
    _write_config_snapshot(out_dir, cfg)
    write_manifest(out_dir, cfg)
    save_checkpoint(os.path.join(out_dir, "checkpoint.json"), report.params, seed)
    with open(os.path.join(out_dir, "curve.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["step", "mean_return"])
        for s, v in report.return_curve:
            w.writerow([s, repr(float(v))])
    traj = mean_rollout(env, report.params, full_reward(env))
    save_trajectory(os.path.join(out_dir, "traj.csv"), traj)
    if cfg["output"]["plots"]:
        plots_dir = os.path.join(out_dir, "plots")
        os.makedirs(plots_dir, exist_ok=True)
        goal = env.anchors()[1]
        plot_trajectories(
            [traj], ["mean policy"], env.barrier,
            os.path.join(plots_dir, "traj.svg"),
            title=f"{env.name}: trained mean trajectory",
            goal_xy=(float(goal.x), float(goal.y)),
        )
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


def read_landscape_csv(path) -> tuple[np.ndarray, np.ndarray]:
    if not os.path.exists(path):
        raise MissingData(f"missing landscape file: {path}")
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    t1 = sorted({float(r["theta1"]) for r in rows})
    index = {v: i for i, v in enumerate(t1)}
    n = len(t1)
    loss = np.full((n, n), np.nan)
    for r in rows:
        loss[index[float(r["theta1"])], index[float(r["theta2"])]] = float(r["mean_loss"])
    return np.array(t1), loss


def run_landscape(cfg: dict, out_dir) -> dict:
    land = cfg["landscape"]
    env = landscape_make(land["barrier_size"], cfg["environment"]["target_side"])
    grid = GridSpec(land["lo"], land["hi"], land["bucket"])
    result = landscape_scan(
        env, grid, land["samples_per_cell"], int(cfg["seed"]), log_std=land["log_std"]
    )
    os.makedirs(out_dir, exist_ok=True)
    _write_config_snapshot(out_dir, cfg)
    write_manifest(out_dir, cfg)
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
