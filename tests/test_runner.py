"""Harness tests: table rules, CSV round-trips, artifact layout, plumbing."""

import copy
import csv
import os
from unittest import mock

import numpy as np
import pytest
import yaml

from easerl import curriculum, envs, runner
from easerl.config import (
    default_config, nav1_defaults, nav2_defaults, validate_config,
)
from easerl.curriculum import TransferReport, run_transfer
from easerl.errors import ConfigError, MissingCheckpoint, MissingData
from easerl.geometry import RegionSet
from easerl.homotopy import Trajectory, save_trajectory
from easerl.rl import load_checkpoint
from easerl.runner import (
    RUNS_COLUMNS,
    build_table,
    env_from_config,
    job_from_config,
    read_runs_csv,
    rebuild_tables,
    render_plots,
    run_grid,
    run_transfer_experiment,
    schedule_from_config,
    write_manifest,
    write_run_artifacts,
    write_runs_csv,
    _write_landscape_csv,
)


def report(method="naive", env="nav1-5", seed=0, steps=12345, converged=True,
           stage_steps=(12345,), ret=10.5, label="L"):
    return TransferReport(method, env, seed, steps, converged, tuple(stage_steps),
                          ret, label, curve=((1000, 1.0), (2000, 2.5)))


def row(method="naive", env="nav1-5", seed=0, steps=12345, converged=True):
    return {
        "method": method, "env": env, "seed": seed, "total_steps": steps,
        "converged": converged, "stage_steps": (steps,),
        "final_return": 1.0, "final_label": "L",
    }


# ---------------------------------------------------------------- build_table


def parse_table_csv(text):
    rows = list(csv.DictReader(text.splitlines()))
    return {(r["env"], r["method"]): r for r in rows}


def test_table_mean_in_thousands_one_decimal():
    rows = [row(steps=10000, seed=0), row(steps=20000, seed=1)]
    table = parse_table_csv(build_table(rows, budget=200000)[0])
    entry = table[("nav1-5", "naive")]
    assert entry["mean_ksteps"] == "15.0"
    assert entry["runs"] == "2" and entry["fails"] == "0" and entry["marker"] == ""


def test_table_failed_run_counted_at_budget():
    rows = [row(steps=10000, seed=0),
            row(steps=180000, seed=1, converged=False)]
    table = parse_table_csv(build_table(rows, budget=200000)[0])
    entry = table[("nav1-5", "naive")]
    # (10000 + 200000) / 2 = 105000 -> 105.0k
    assert entry["mean_ksteps"] == "105.0"
    assert entry["fails"] == "1"
    assert entry["marker"] == ""


@pytest.mark.parametrize("n,fails,marked", [
    (5, 0, False), (5, 2, False), (5, 3, True), (4, 2, False), (4, 3, True),
    (2, 1, False), (1, 1, True),
])
def test_table_budget_marker_majority_rule(n, fails, marked):
    rows = [row(seed=i, converged=(i >= fails)) for i in range(n)]
    table = parse_table_csv(build_table(rows, budget=99000)[0])
    entry = table[("nav1-5", "naive")]
    if marked:
        assert entry["marker"] == ">budget"
        assert entry["mean_ksteps"] == ">budget" and entry["std_ksteps"] == "-"
    else:
        assert entry["marker"] == ""
        float(entry["mean_ksteps"])  # parses as a number


def test_table_population_std():
    rows = [row(steps=10000, seed=0), row(steps=20000, seed=1)]
    table = parse_table_csv(build_table(rows, budget=10**6)[0])
    # population std of {10000, 20000} is 5000 -> 5.0k
    assert table[("nav1-5", "naive")]["std_ksteps"] == "5.0"


def test_table_method_ordering_and_env_grouping():
    rows = [row(method="random", seed=0), row(method="ease_reward", seed=0),
            row(method="naive", seed=0), row(method="l2sp", seed=0),
            row(method="ease_barrier", seed=0)]
    text = build_table(rows, budget=10**6)[0]
    methods = [r["method"] for r in csv.DictReader(text.splitlines())]
    assert methods == ["ease_reward", "ease_barrier", "naive", "l2sp", "random"]


def test_table_txt_matches_csv_values():
    rows = [row(steps=10000, seed=0)]
    csv_text, txt = build_table(rows, budget=10**6)
    assert "10.0" in csv_text and "10.0" in txt
    assert txt.splitlines()[0].startswith("method")


def test_table_empty_rows():
    csv_text, txt = build_table([], budget=1000)
    assert csv_text.splitlines()[0].startswith("method,env")
    assert txt.splitlines()[0].startswith("method")


# ------------------------------------------------------------ runs.csv


def test_runs_csv_round_trip(tmp_path):
    reports = [report(seed=0), report(method="l2sp", seed=1, converged=False,
                                      steps=99999, stage_steps=(99999,), ret=-3.25)]
    path = tmp_path / "runs.csv"
    write_runs_csv(path, reports)
    rows = read_runs_csv(path)
    assert [r["method"] for r in rows] == ["naive", "l2sp"]
    assert rows[0]["total_steps"] == 12345
    assert rows[0]["converged"] is True
    assert rows[1]["converged"] is False
    assert rows[1]["final_return"] == -3.25
    assert rows[0]["stage_steps"] == (12345,)


def test_runs_csv_multi_stage_steps_round_trip(tmp_path):
    rep = report(method="ease_barrier", stage_steps=(100, 200, 300), steps=600)
    path = tmp_path / "runs.csv"
    write_runs_csv(path, [rep])
    assert read_runs_csv(path)[0]["stage_steps"] == (100, 200, 300)


def test_runs_csv_header_matches_module_schema(tmp_path):
    path = tmp_path / "runs.csv"
    write_runs_csv(path, [report()])
    with open(path, newline="") as f:
        assert next(csv.reader(f)) == [name for name, *_ in RUNS_COLUMNS]


def test_runs_csv_round_trips_every_column_at_its_edge_values(tmp_path):
    # an empty final label (no collision-free final episode), a stage that
    # spent nothing, a return whose repr needs 17 digits, a seed >= 2**63
    reports = [
        report(method="naive", env="nav1-7", seed=0, converged=False,
               stage_steps=(199940,), steps=199940, ret=-6466.08517750765, label=""),
        report(method="ease_barrier", seed=2**70, stage_steps=(500, 0, 1200),
               steps=1700, ret=0.1 + 0.2, label="L"),
    ]
    path = tmp_path / "runs.csv"
    write_runs_csv(path, reports)
    with open(path, newline="") as f:
        lines = list(csv.reader(f))
    assert lines[0] == [name for name, *_ in RUNS_COLUMNS]
    assert len(RUNS_COLUMNS) == 8
    assert lines[1][-2:] == ["-6466.08517750765", ""]
    assert "0.30000000000000004" in lines[2] and "500;0;1200" in lines[2]
    rows = read_runs_csv(path)
    assert len(rows) == len(reports)
    for rep, got in zip(reports, rows):
        assert list(got) == [name for name, *_ in RUNS_COLUMNS]
        for name, field, _, _ in RUNS_COLUMNS:
            want = getattr(rep, field)
            assert got[name] == want and type(got[name]) is type(want), name


def test_read_runs_csv_missing_raises(tmp_path):
    with pytest.raises(MissingData):
        read_runs_csv(tmp_path / "absent.csv")


def test_tables_regenerate_bit_identically(tmp_path):
    cfg = nav1_defaults(5)
    reports = [report(seed=s, steps=10000 + 7 * s) for s in range(3)]
    write_runs_csv(tmp_path / "runs.csv", reports)
    rebuild_tables(tmp_path, cfg)
    first = {name: (tmp_path / name).read_bytes() for name in ("table.csv", "table.txt")}
    for name in first:
        (tmp_path / name).unlink()
    rebuild_tables(tmp_path, cfg)
    for name, blob in first.items():
        assert (tmp_path / name).read_bytes() == blob


# ------------------------------------------------------------ manifest


def test_manifest_fields_and_no_timestamps(tmp_path):
    cfg = nav1_defaults(5)
    write_manifest(tmp_path, cfg)
    doc = yaml.safe_load((tmp_path / "manifest.yaml").read_text())
    assert set(doc) == {"config_hash", "schema_version", "seed", "tool", "version"}
    assert doc["tool"] == "easerl"
    # rewriting produces identical bytes (nothing time-dependent inside)
    blob = (tmp_path / "manifest.yaml").read_bytes()
    write_manifest(tmp_path, cfg)
    assert (tmp_path / "manifest.yaml").read_bytes() == blob


# ------------------------------------------------------------ landscape CSV


def read_landscape_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """A landscape CSV's grid values and (n, n) loss, parsed cell by cell."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    t1 = sorted({float(r["theta1"]) for r in rows})
    index = {v: i for i, v in enumerate(t1)}
    loss = np.full((len(t1), len(t1)), np.nan)
    for r in rows:
        loss[index[float(r["theta1"])], index[float(r["theta2"])]] = float(r["mean_loss"])
    return np.array(t1), loss


def test_landscape_csv_round_trip_exact(tmp_path):
    thetas = np.array([-1.0, -0.9, 1.3])
    rng = np.random.default_rng(3)
    loss = rng.normal(size=(3, 3)) * 1e4
    path = tmp_path / "grid.csv"
    _write_landscape_csv(path, thetas, loss)
    t2, l2 = read_landscape_csv(path)
    assert np.array_equal(t2, thetas)
    assert np.array_equal(l2, loss)  # repr round-trip is exact


# ------------------------------------------------------------ schedules


def test_schedule_reward_weight_from_config():
    cfg = nav2_defaults("LL")
    env = env_from_config(cfg)
    sched = schedule_from_config(cfg, env)["ease_reward"]
    assert [spec.weight for spec in sched] == cfg["transfer"]["schedule"]["alphas"]
    assert all(spec.region == env.barrier for spec in sched)
    assert sched[-1].weight == 1.0


def test_schedule_reward_weight_requires_alphas():
    cfg = nav2_defaults("LL")
    cfg["transfer"]["schedule"]["alphas"] = []
    env = env_from_config(cfg)
    with pytest.raises(ConfigError):
        schedule_from_config(cfg, env)


def test_schedule_barrier_sizes_builds_nested_rectangles():
    cfg = nav1_defaults(7)
    env = env_from_config(cfg)
    sched = schedule_from_config(cfg, env)["ease_barrier"]
    assert len(sched) == 2
    assert sched[0].region.parts[0].bbox() == (-2.0, -1.0, 2.0, 1.0)
    assert sched[1].region.parts[0].bbox() == (-3.5, -1.0, 3.5, 1.0)
    assert all(isinstance(s.region, RegionSet) and s.weight == 1.0 for s in sched)


def test_schedule_barrier_sizes_rejected_off_nav1():
    cfg = nav2_defaults("LL")
    cfg["transfer"]["methods"] = ["naive"]
    cfg["transfer"]["schedule"]["barrier_sizes"] = [4, 7]
    env = env_from_config(cfg)
    with pytest.raises(ConfigError, match="barrier_sizes need environment.name: nav1"):
        schedule_from_config(cfg, env)


@pytest.mark.parametrize(
    "make",
    [lambda: nav1_defaults(1), lambda: nav1_defaults(7), lambda: nav2_defaults("RR")],
    ids=["nav1-1", "nav1-7", "nav2"],
)
def test_shipped_defaults_suit_their_methods(make):
    # each shipped method list matches its schedule, so `easerl transfer`
    # on a default config gets past the pre-training check
    cfg = make()
    schedule_from_config(cfg, env_from_config(cfg))


def test_schedule_auto_mode_is_none():
    cfg = nav1_defaults(5)  # no explicit sizes for size-5
    env = env_from_config(cfg)
    assert schedule_from_config(cfg, env) == {"ease_reward": None, "ease_barrier": None}


# ------------------------------------------------------------ job plumbing


def test_env_from_config_dispatch():
    assert env_from_config(nav1_defaults(5)).name == "nav1-5"
    assert env_from_config(nav2_defaults("RR")).name == "nav2"


def test_job_from_config_wiring():
    cfg = nav1_defaults(7)
    env = env_from_config(cfg)
    schedule = schedule_from_config(cfg, env)["ease_barrier"]
    job = job_from_config(cfg, env, source=None, seed=3, schedule=schedule)
    assert job.seed == 3
    assert job.schedule is schedule
    assert job.budget == cfg["transfer"]["budget"]
    assert job.final_band.center == cfg["training"]["convergence"]["center"]
    assert job.relax_band.center == cfg["transfer"]["relax_convergence"]["center"]
    assert job.stage_band.center == cfg["transfer"]["stage_convergence"]["center"]


def test_grid_builds_its_schedule_once(tmp_path, monkeypatch):
    """`easerl transfer` builds and checks the schedules once, before the
    grid; every job of a curriculum holds that curriculum's one tuple, and
    every baseline job holds None."""
    cfg = nav1_defaults(7, "left")
    cfg["transfer"].update(methods=["ease_reward", "ease_barrier", "naive"], seeds=[0, 1, 2],
                           source_checkpoint=os.path.join(ASSETS, "source-nav1-7.json"))
    cfg["transfer"]["schedule"]["alphas"] = [0.1, 0.3, 1.0]
    built, served = [], []

    def build(*args):
        built.append(schedule_from_config(*args))
        return built[-1]

    class Served(Exception):
        pass

    def serve_tasks(env, tasks):
        served.extend(tasks)
        raise Served

    monkeypatch.setattr(runner, "schedule_from_config", build)
    monkeypatch.setattr(runner, "_serve_tasks", serve_tasks)
    with pytest.raises(Served):
        run_transfer_experiment(validate_config(cfg), tmp_path / "o")
    assert len(built) == 1
    assert [len(built[0][m]) for m in ("ease_reward", "ease_barrier")] == [3, 2]
    assert sorted((m, job.seed) for m, job in served) == [
        (m, s) for m in ("ease_barrier", "ease_reward", "naive") for s in (0, 1, 2)
    ]
    assert all(job.schedule is built[0].get(m) for m, job in served)


def test_package_exports_resolve():
    import easerl

    missing = [name for name in easerl.__all__ if not hasattr(easerl, name)]
    assert missing == []
    assert len(set(easerl.__all__)) == len(easerl.__all__)
    assert "CurriculumSchedule" not in easerl.__all__


# ------------------------------------------------------------ artifacts


def fake_traj(offset=0.0):
    xs = np.linspace(0.0, 1.0, 5)
    return Trajectory(np.stack([xs + offset, xs * 2.0], axis=1))


def test_write_run_artifacts_layout(tmp_path):
    t = fake_traj()
    reports = [
        TransferReport("ease_barrier", "nav1-7", 0, 600, True, (100, 200, 300),
                       9.0, "L", curve=((100, 1.0),),
                       stage_trajectories=(("relax", t), ("stage-0", t), ("stage-1", t))),
        TransferReport("naive", "nav1-7", 1, 900, False, (900,),
                       -2.0, "R", curve=((300, -1.0),),
                       stage_trajectories=(("final", t),)),
    ]
    write_run_artifacts(tmp_path, reports)
    assert (tmp_path / "curves" / "ease_barrier-0.csv").exists()
    assert (tmp_path / "curves" / "naive-1.csv").exists()
    for label in ("relax", "stage-0", "stage-1"):
        assert (tmp_path / "trajs" / f"ease_barrier-0-{label}.csv").exists()
    assert (tmp_path / "trajs" / "naive-1-final.csv").exists()


def make_fake_run_dir(tmp_path):
    cfg = nav1_defaults(7)
    cfg["transfer"]["methods"] = ["ease_barrier", "naive"]
    cfg["transfer"]["seeds"] = [0]
    t = fake_traj()
    reports = [
        TransferReport("ease_barrier", "nav1-7", 0, 600, True, (100, 200, 300),
                       9.0, "L", curve=((100, 1.0), (200, 2.0)),
                       stage_trajectories=(("relax", t), ("stage-0", t), ("stage-1", t))),
        TransferReport("naive", "nav1-7", 0, 900, False, (900,),
                       -2.0, "R", curve=((300, -1.0),),
                       stage_trajectories=(("final", t),)),
    ]
    with open(tmp_path / "config.yaml", "w") as f:
        from easerl.config import serialize_config
        f.write(serialize_config(cfg))
    write_runs_csv(tmp_path / "runs.csv", reports)
    write_run_artifacts(tmp_path, reports)
    return cfg


def test_render_plots_writes_expected_svgs(tmp_path):
    make_fake_run_dir(tmp_path)
    written = render_plots(tmp_path)
    # the order `easerl plot` prints: the shared field, each method's curves,
    # then each curriculum's stages
    assert [os.path.basename(p) for p in written] == [
        "trajectories.svg", "curves-ease_barrier.svg", "curves-naive.svg",
        "stages-ease_barrier-seed0.svg",
    ]
    for p in written:
        assert os.path.exists(p)
        with open(p) as f:
            assert "<svg" in f.read(200)


def test_render_plots_missing_config_raises(tmp_path):
    with pytest.raises(MissingData):
        render_plots(tmp_path)


def test_transfer_experiment_requires_checkpoint(tmp_path):
    cfg = nav1_defaults(5)
    cfg["transfer"]["source_checkpoint"] = ""
    with pytest.raises(MissingCheckpoint):
        run_transfer_experiment(cfg, tmp_path / "out")
    cfg["transfer"]["source_checkpoint"] = str(tmp_path / "nope.json")
    with pytest.raises(MissingCheckpoint):
        run_transfer_experiment(cfg, tmp_path / "out")


# ------------------------------------------------------------ lockstep grid

ASSETS = os.path.join(os.path.dirname(__file__), os.pardir, "assets")

# (config, source checkpoint, methods, budget): tiny budgets, and a relax
# band every policy meets, so each curriculum stage runs a few batches
GRIDS = {
    "nav1-7": (lambda: nav1_defaults(7, "left"), "source-nav1-7.json",
               ["ease_barrier", "naive", "l2sp", "random"], 9000),
    "nav2": (lambda: nav2_defaults("RR"), "source-nav2-LL.json", ["ease_reward", "naive"], 16000),
}


def tiny_grid(name):
    make, source, methods, budget = GRIDS[name]
    cfg = make()
    xf = cfg["transfer"]
    xf.update(methods=methods, seeds=[0, 1], budget=budget,
              source_checkpoint=os.path.join(ASSETS, source))
    xf["relax_convergence"] = {"center": 0.0, "half_width": 1e9, "patience": 1}
    cfg["training"]["eval_every"] = 2048
    cfg = validate_config(cfg)
    return cfg, load_checkpoint(xf["source_checkpoint"])[0]


def policy_bytes(policy):
    return policy.theta.tobytes() + policy.log_std.tobytes()


def runs_row(rep):
    """The report's runs.csv row, as text."""
    return [text(getattr(rep, field)) for _, field, text, _ in RUNS_COLUMNS]


def assert_same_report(got, want):
    assert runs_row(got) == runs_row(want)
    assert got.curve == want.curve
    assert [label for label, _ in got.stage_trajectories] == [
        label for label, _ in want.stage_trajectories
    ]
    for (_, a), (_, b) in zip(got.stage_trajectories, want.stage_trajectories):
        assert a.states.tobytes() == b.states.tobytes()
        assert a.raw_states.tobytes() == b.raw_states.tobytes()
    assert [(label, policy_bytes(p)) for label, p in got.stage_policies] == [
        (label, policy_bytes(p)) for label, p in want.stage_policies
    ]
    assert policy_bytes(got.final_policy) == policy_bytes(want.final_policy)


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_lockstep_grid_equals_each_run_alone(name):
    cfg, source = tiny_grid(name)
    env = env_from_config(cfg)
    schedules = schedule_from_config(cfg, env)
    with mock.patch.object(envs, "rollout_batch", wraps=envs.rollout_batch) as engine:
        reports = run_grid(cfg, source, schedules)
    grid_calls = engine.call_count
    methods = cfg["transfer"]["methods"]
    assert sorted((r.method, r.seed) for r in reports) == sorted(
        (m, s) for m in methods for s in (0, 1)
    )
    with mock.patch.object(envs, "rollout_batch", wraps=envs.rollout_batch) as engine:
        alone = [
            run_transfer(job_from_config(cfg, env, source, r.seed, schedules.get(r.method)),
                         r.method)
            for r in reports
        ]
    # the runs shared engine calls, and each got the bits it gets alone
    assert grid_calls < engine.call_count
    for got, want in zip(reports, alone):
        assert_same_report(got, want)
    for got, want in zip(run_grid(cfg, source, schedules, workers=2), reports):
        assert_same_report(got, want)


def test_a_grid_checks_its_schedule_once():
    """A 3-seed `ease_barrier` grid checks its schedule when it builds it;
    each run's curriculum then finds it checked."""
    cfg, source = tiny_grid("nav1-7")
    cfg["transfer"].update(methods=["ease_barrier"], seeds=[0, 1, 2])
    env = env_from_config(cfg)
    curriculum._check_schedule.cache_clear()
    schedules = schedule_from_config(cfg, env)
    with mock.patch.object(curriculum, "run_curriculum", wraps=curriculum.run_curriculum) as runs:
        run_grid(cfg, source, schedules)
    assert runs.call_count == 3
    info = curriculum._check_schedule.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_one_grid_runs_every_method_as_each_would_alone(tmp_path):
    """Both curricula and a baseline share one nav1-7 grid, each curriculum
    reading its own list: every run writes the runs.csv row, curve and stage
    trajectories that it writes in a grid of its own, and the grid steps its
    runs in lockstep."""
    cfg = nav1_defaults(7, "left")
    xf = cfg["transfer"]
    xf.update(budget=9000, source_checkpoint=os.path.join(ASSETS, "source-nav1-7.json"))
    xf["schedule"]["alphas"] = [0.1, 0.3, 1.0]
    xf["relax_convergence"] = {"center": 0.0, "half_width": 1e9, "patience": 1}
    cfg["training"]["eval_every"] = 2048
    cfg["output"]["plots"] = False

    def run(methods, seeds, out):
        grid = copy.deepcopy(cfg)
        grid["transfer"].update(methods=methods, seeds=seeds)
        with mock.patch.object(envs, "rollout_batch", wraps=envs.rollout_batch) as engine:
            run_transfer_experiment(validate_config(grid), out)
        lines = (out / "runs.csv").read_text().splitlines()[1:]
        files = {
            p.relative_to(out).as_posix(): p.read_bytes()
            for d in ("curves", "trajs") for p in sorted((out / d).iterdir())
        }
        return {tuple(line.split(",")[0:3:2]): line for line in lines}, files, engine.call_count

    methods = ["ease_reward", "ease_barrier", "naive"]
    rows, files, grid_calls = run(methods, [0, 1], tmp_path / "grid")
    assert sorted(rows) == sorted((m, s) for m in methods for s in ("0", "1"))
    # each curriculum ran the stages of its own list: three weights, two sizes
    assert sorted(name for name in files if "-0-stage-" in name) == [
        f"trajs/{m}-0-stage-{k}.csv"
        for m, n in (("ease_barrier", 2), ("ease_reward", 3)) for k in range(n)
    ]
    alone_calls = 0
    for m, s in sorted(rows):
        alone_rows, alone_files, calls = run([m], [int(s)], tmp_path / f"{m}-{s}")
        alone_calls += calls
        assert alone_rows == {(m, s): rows[(m, s)]}
        assert alone_files == {
            name: data for name, data in files.items()
            if name.split("/")[1].startswith(f"{m}-{s}")
        }
    assert grid_calls < alone_calls
