"""CLI surface tests: exit codes, file formats, overrides, smoke runs."""

import csv
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from easerl import envs
from easerl.cli import (
    EXIT_DIFFERENT,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    load_region_yaml,
    load_trajectory_set,
    main,
)
from easerl.config import (
    angle_defaults,
    default_config,
    nav1_defaults,
    nav2_defaults,
    serialize_config,
    validate_config,
)
from easerl.errors import ConfigError
from easerl.envs import angle_make
from easerl.homotopy import Trajectory, save_trajectory
from easerl.rl import Arch, init_policy, save_checkpoint


# ------------------------------------------------------------ fixtures


REGION_DOC = {
    "penalty": 1000.0,
    "parts": [[[-2.5, -1.0], [2.5, -1.0], [2.5, 1.0], [-2.5, 1.0]]],
    "anchors": {"start": [0.0, -8.0], "goal": [0.0, 8.0]},
}


def write_region(tmp_path, doc=None):
    path = tmp_path / "region.yaml"
    path.write_text(yaml.safe_dump(doc if doc is not None else REGION_DOC))
    return str(path)


def side_traj(x_side):
    ys = np.linspace(-8.0, 8.0, 33)
    xs = np.full_like(ys, x_side)
    xs[0] = xs[-1] = 0.0  # pinched at start/goal
    return Trajectory(np.stack([xs, ys], axis=1))


def through_traj():
    ys = np.linspace(-8.0, 8.0, 33)
    return Trajectory(np.stack([np.zeros_like(ys), ys], axis=1))


def write_traj(tmp_path, name, traj):
    path = tmp_path / name
    save_trajectory(path, traj)
    return str(path)


def write_traj_set(tmp_path, name, trajs):
    path = tmp_path / name
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["traj", "t", "x", "y"])
        for k, traj in enumerate(trajs):
            for t in range(len(traj)):
                w.writerow([k, t, repr(float(traj.states[t, 0])),
                            repr(float(traj.states[t, 1]))])
    return str(path)


def line(x0, y0, x1, y1, n=9):
    ts = np.linspace(0.0, 1.0, n)
    return Trajectory(np.stack([x0 + ts * (x1 - x0), y0 + ts * (y1 - y0)], axis=1))


# ------------------------------------------------------------ usage errors


def test_no_command_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["train"]) == EXIT_USAGE  # no --out
    capsys.readouterr()


def test_bad_config_file_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("nonsense_key: 1\n")
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path / "absent.yaml"),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_USAGE
    capsys.readouterr()


SOURCE_NAV1_7 = str(Path(__file__).resolve().parents[1] / "assets" / "source-nav1-7.json")


def _no_training(*args, **kwargs):
    """Stands in for envs.rollout_batch: every rollout of a transfer grid,
    training or evaluation, is an engine call that the lockstep scheduler
    (envs.serve) makes through it."""
    raise AssertionError("a bad schedule must be rejected before any training")


@pytest.mark.parametrize(
    "env, schedule, key",
    [
        ("nav1", {"barrier_sizes": [-1, 7]}, "transfer.schedule.barrier_sizes"),
        ("nav1", {"barrier_sizes": [7, 4]}, "not contained in subset 1"),
        ("angle", {"intervals": [[1.0, 0.5]]}, "transfer.schedule.intervals"),
    ],
    ids=["negative-size", "not-nested", "reversed-interval"],
)
def test_bad_transfer_schedule_exits_usage_before_training(
    env, schedule, key, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(envs, "rollout_batch", _no_training)
    cfg = nav1_defaults(7, "left") if env == "nav1" else angle_defaults("up")
    cfg["transfer"]["schedule"].update(schedule)
    cfg["transfer"]["source_checkpoint"] = SOURCE_NAV1_7
    cfg["transfer"]["seeds"] = [0]
    path = tmp_path / "c.yaml"
    path.write_text(serialize_config(validate_config(cfg)))
    rc = main(["transfer", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


BARRIER_SET = {"mode": "barrier_set", "alphas": [], "barrier_sizes": [], "intervals": [],
               "auto_stages": 3}


@pytest.mark.parametrize(
    "make, methods, schedule, key",
    [
        (lambda: nav2_defaults("RR"), ["ease_barrier", "naive"], None, "transfer.schedule.mode"),
        (lambda: nav1_defaults(7, "left"), ["naive", "ease_reward"], None,
         "transfer.schedule.mode"),
        (lambda: nav2_defaults("RR"), ["ease_barrier"], BARRIER_SET, "environment.name"),
    ],
    ids=["ease-barrier-alpha-schedule", "ease-reward-subset-schedule", "auto-subsets-off-nav1"],
)
def test_method_schedule_mismatch_exits_usage_before_training(
    make, methods, schedule, key, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(envs, "rollout_batch", _no_training)
    cfg = make()
    cfg["transfer"]["methods"] = methods
    if schedule is not None:
        cfg["transfer"]["schedule"] = dict(schedule)
    cfg["transfer"]["source_checkpoint"] = SOURCE_NAV1_7
    cfg["transfer"]["seeds"] = [0]
    path = tmp_path / "c.yaml"
    path.write_text(serialize_config(validate_config(cfg)))
    rc = main(["transfer", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_angle_ease_barrier_runs_its_interval_stages(tmp_path, capsys):
    env = angle_make("up")
    src = tmp_path / "src.json"
    arch = Arch("mlp", env.spec.state_dim, env.spec.action_dim, 8)
    save_checkpoint(src, init_policy(arch, 0), 0)
    cfg = angle_defaults("up")
    cfg["transfer"]["methods"] = ["ease_barrier"]
    cfg["transfer"]["seeds"] = [0]
    cfg["transfer"]["source_checkpoint"] = str(src)
    cfg["transfer"]["budget"] = 2048
    cfg["transfer"]["relax_convergence"] = {"center": 0.0, "half_width": 1e12, "patience": 1}
    cfg["output"]["plots"] = False
    path = tmp_path / "c.yaml"
    path.write_text(serialize_config(validate_config(cfg)))
    rc = main(["transfer", "--config", str(path), "--out", str(tmp_path / "o")])
    capsys.readouterr()
    assert rc == EXIT_OK
    with open(tmp_path / "o" / "runs.csv", newline="") as f:
        (row,) = list(csv.DictReader(f))
    assert row["method"] == "ease_barrier"
    assert len(row["stage_steps"].split(";")) == 4  # relax + the three intervals


# ------------------------------------------------------------ homotopy


def test_homotopy_same_file_exits_zero(tmp_path, capsys):
    region = write_region(tmp_path)
    a = write_traj(tmp_path, "a.csv", side_traj(-5.0))
    assert main(["homotopy", "--traj-a", a, "--traj-b", a, "--region", region]) == EXIT_OK
    out = capsys.readouterr().out
    assert "same class" in out


def test_homotopy_left_vs_right_exits_one(tmp_path, capsys):
    region = write_region(tmp_path)
    a = write_traj(tmp_path, "a.csv", side_traj(-5.0))
    b = write_traj(tmp_path, "b.csv", side_traj(5.0))
    assert main(["homotopy", "--traj-a", a, "--traj-b", b, "--region", region]) == EXIT_DIFFERENT
    out = capsys.readouterr().out
    assert "different class" in out
    assert "class L" in out and "class R" in out


def test_homotopy_colliding_fixture_is_runtime_error(tmp_path, capsys):
    region = write_region(tmp_path)
    a = write_traj(tmp_path, "a.csv", side_traj(-5.0))
    c = write_traj(tmp_path, "c.csv", through_traj())
    assert main(["homotopy", "--traj-a", a, "--traj-b", c, "--region", region]) == EXIT_RUNTIME
    assert "error:" in capsys.readouterr().err


def test_homotopy_missing_trajectory_is_usage_error(tmp_path, capsys):
    region = write_region(tmp_path)
    a = write_traj(tmp_path, "a.csv", side_traj(-5.0))
    rc = main(["homotopy", "--traj-a", a, "--traj-b", str(tmp_path / "nope.csv"),
               "--region", region])
    assert rc == EXIT_USAGE
    capsys.readouterr()


def test_region_yaml_round_trip(tmp_path):
    region, start, goal = load_region_yaml(write_region(tmp_path))
    assert region.penalty == 1000.0
    assert len(region.parts) == 1
    assert region.parts[0].bbox() == (-2.5, -1.0, 2.5, 1.0)
    assert (start.x, start.y) == (0.0, -8.0)
    assert (goal.x, goal.y) == (0.0, 8.0)


def test_region_yaml_unknown_key_rejected(tmp_path):
    doc = dict(REGION_DOC, extra=1)
    with pytest.raises(ConfigError):
        load_region_yaml(write_region(tmp_path, doc))


def test_region_yaml_missing_anchors_rejected(tmp_path):
    doc = {k: v for k, v in REGION_DOC.items() if k != "anchors"}
    with pytest.raises(ConfigError):
        load_region_yaml(write_region(tmp_path, doc))


def test_region_yaml_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_region_yaml(tmp_path / "absent.yaml")


def test_region_yaml_not_a_mapping_rejected(tmp_path):
    path = tmp_path / "region.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError):
        load_region_yaml(path)


# ------------------------------------------------------------ winf


def test_winf_identical_sets_is_zero(tmp_path, capsys):
    trajs = [line(0, 0, 1, 1), line(0, 0, -1, 1)]
    a = write_traj_set(tmp_path, "a.csv", trajs)
    b = write_traj_set(tmp_path, "b.csv", trajs)
    assert main(["winf", "--set-a", a, "--set-b", b]) == EXIT_OK
    out = capsys.readouterr().out
    assert "w_infinity = 0.0" in out


def test_winf_singletons_known_offset(tmp_path, capsys):
    a = write_traj_set(tmp_path, "a.csv", [line(0, 0, 1, 0)])
    b = write_traj_set(tmp_path, "b.csv", [line(0.3, 0, 1.3, 0)])
    assert main(["winf", "--set-a", a, "--set-b", b]) == EXIT_OK
    out = capsys.readouterr().out
    value = float(out.splitlines()[0].split("=")[1])
    assert math.isclose(value, 0.3, rel_tol=1e-12)
    assert "match 0 -> 0" in out


def test_winf_three_point_fixture_matches_permutation_oracle(tmp_path, capsys):
    rng = np.random.default_rng(7)
    set_a = [line(*rng.uniform(-3, 3, size=4)) for _ in range(3)]
    set_b = [line(*rng.uniform(-3, 3, size=4)) for _ in range(3)]
    a = write_traj_set(tmp_path, "a.csv", set_a)
    b = write_traj_set(tmp_path, "b.csv", set_b)
    assert main(["winf", "--set-a", a, "--set-b", b]) == EXIT_OK
    out = capsys.readouterr().out
    value = float(out.splitlines()[0].split("=")[1])

    def dist(t1, t2):
        return float(np.max(np.linalg.norm(t1.states - t2.states, axis=1)))

    oracle = min(
        max(dist(set_a[i], set_b[p[i]]) for i in range(3))
        for p in itertools.permutations(range(3))
    )
    assert value == oracle


def test_winf_unequal_supports_is_runtime_error(tmp_path, capsys):
    a = write_traj_set(tmp_path, "a.csv", [line(0, 0, 1, 0)])
    b = write_traj_set(tmp_path, "b.csv", [line(0, 0, 1, 0), line(0, 0, 0, 1)])
    assert main(["winf", "--set-a", a, "--set-b", b]) == EXIT_RUNTIME
    assert "error:" in capsys.readouterr().err


def test_winf_bad_header_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n")
    a = write_traj_set(tmp_path, "a.csv", [line(0, 0, 1, 0)])
    assert main(["winf", "--set-a", str(bad), "--set-b", a]) == EXIT_USAGE
    capsys.readouterr()


def test_winf_resample_length_handles_unequal_lengths(tmp_path, capsys):
    a = write_traj_set(tmp_path, "a.csv", [line(0, 0, 1, 0, n=9)])
    b = write_traj_set(tmp_path, "b.csv", [line(0, 0, 1, 0, n=17)])
    assert main(["winf", "--set-a", a, "--set-b", b, "--length", "33"]) == EXIT_OK
    out = capsys.readouterr().out
    value = float(out.splitlines()[0].split("=")[1])
    assert value < 1e-9  # same underlying segment


def test_trajectory_set_groups_sorted(tmp_path):
    dist = load_trajectory_set(
        write_traj_set(tmp_path, "a.csv", [line(0, 0, 1, 0), line(0, 0, 0, 1)])
    )
    assert len(dist.samples) == 2


# ------------------------------------------------------------ plot


def test_plot_missing_run_is_runtime_error(tmp_path, capsys):
    assert main(["plot", "--run", str(tmp_path)]) == EXIT_RUNTIME
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------ train smoke


def tiny_train_config(tmp_path):
    cfg = validate_config(default_config())
    cfg["environment"] = {"name": "nav1", "barrier_size": 5, "target_side": "right"}
    cfg["training"]["max_steps"] = 1024
    cfg["training"]["eval_every"] = 512
    cfg["training"]["eval_episodes"] = 2
    cfg["training"]["convergence"] = {"center": 0.0, "half_width": 1e9, "patience": 1}
    cfg["output"]["plots"] = True
    path = tmp_path / "cfg.yaml"
    path.write_text(serialize_config(cfg))
    return str(path)


def test_train_smoke_writes_artifacts(tmp_path, capsys):
    cfg = tiny_train_config(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--seed", "5", "--out", str(out)]) == EXIT_OK
    assert (out / "checkpoint.json").exists()
    assert (out / "curve.csv").exists()
    assert (out / "traj.csv").exists()
    assert (out / "manifest.yaml").exists()
    assert (out / "config.yaml").exists()
    assert (out / "plots" / "traj.svg").exists()
    snapshot = yaml.safe_load((out / "config.yaml").read_text())
    assert snapshot["seed"] == 5  # the seed override is recorded
    capsys.readouterr()
