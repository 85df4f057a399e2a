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
    default_config,
    nav1_defaults,
    nav2_defaults,
    serialize_config,
    validate_config,
)
from easerl.errors import ConfigError
from easerl.homotopy import Trajectory, save_trajectory, traj_distance

from test_homotopy import listkuhn_bottleneck, reference_resample
from test_runner import make_fake_run_dir


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
    "section, override, key",
    [
        ("schedule", {"barrier_sizes": [-1, 7]}, "transfer.schedule.barrier_sizes"),
        ("schedule", {"barrier_sizes": [0, 7]}, "transfer.schedule.barrier_sizes"),
        ("schedule", {"barrier_sizes": [7, 4]}, "not contained in subset 1"),
        ("environment", {"name": "angle", "target_side": "up"}, "unknown environment.name"),
        ("schedule", {"intervals": [[0.6, 0.9]]},
         "unknown config key: transfer.schedule.intervals"),
    ],
    ids=["negative-size", "zero-size", "not-nested", "angle-environment", "interval-schedule"],
)
def test_bad_transfer_schedule_exits_usage_before_training(
    section, override, key, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(envs, "rollout_batch", _no_training)
    cfg = nav1_defaults(7, "left")
    block = cfg["environment"] if section == "environment" else cfg["transfer"]["schedule"]
    block.update(override)
    cfg["transfer"]["source_checkpoint"] = SOURCE_NAV1_7
    cfg["transfer"]["seeds"] = [0]
    path = tmp_path / "c.yaml"
    path.write_text(serialize_config(cfg))
    rc = main(["transfer", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


NO_LISTS = {"alphas": [], "barrier_sizes": []}


@pytest.mark.parametrize(
    "make, methods, schedule, key",
    [
        (lambda: nav2_defaults("RR"), ["ease_barrier", "naive"], None, "environment.name"),
        (lambda: nav1_defaults(7, "left"), ["naive", "ease_reward"], None,
         "ease_reward needs transfer.schedule.alphas"),
        (lambda: nav2_defaults("RR"), ["ease_barrier"], NO_LISTS, "environment.name"),
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


@pytest.mark.parametrize(
    "make, schedule, key",
    [
        (lambda: nav1_defaults(7, "left"),
         {"alphas": [], "barrier_sizes": [4, 4, 7]}, "barrier_sizes"),
        (lambda: nav2_defaults("RR"),
         {"alphas": [0.5, 0.5, 1.0], "barrier_sizes": []}, "alphas"),
    ],
    ids=["barrier-sizes", "alphas"],
)
def test_repeated_stage_exits_usage_before_training(
    make, schedule, key, tmp_path, capsys, monkeypatch
):
    # a stage that charges what the stage before it charged is rejected by
    # the one schedule rule; barrier_sizes [4, 4, 7] was accepted before
    monkeypatch.setattr(envs, "rollout_batch", _no_training)
    cfg = make()
    cfg["transfer"]["schedule"] = dict(schedule)
    cfg["transfer"]["source_checkpoint"] = SOURCE_NAV1_7
    cfg["transfer"]["seeds"] = [0]
    path = tmp_path / "c.yaml"
    path.write_text(serialize_config(validate_config(cfg)))
    rc = main(["transfer", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert err == f"error: transfer.schedule.{key}: stage 1 charges the same penalty as stage 0\n"
    assert not (tmp_path / "o").exists()


def _transfer_exits_usage(cfg, tmp_path, capsys) -> str:
    """Runs `easerl transfer` on `cfg` as written, asserts that it exits 2
    with one error line and writes nothing, and returns that line."""
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(cfg))
    rc = main(["transfer", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()
    return err


@pytest.mark.parametrize("mode", ["barrier_set", "reward_weight"])
def test_schedule_mode_key_exits_usage(mode, tmp_path, capsys, monkeypatch):
    # each curriculum reads its own list, so a config that still names the
    # old mode is stale: it names an unknown key
    monkeypatch.setattr(envs, "rollout_batch", _no_training)
    cfg = {"transfer": {"schedule": {"mode": mode}, "source_checkpoint": SOURCE_NAV1_7}}
    err = _transfer_exits_usage(cfg, tmp_path, capsys)
    assert err == "error: unknown config key: transfer.schedule.mode\n"


@pytest.mark.parametrize(
    "alphas, named",
    [([0.5, 0.3, 1.0], "alphas must satisfy"), ([0.5, 2.0], "weight must be in [0, 1], got 2.0"),
     ([0.1, 0.5], "final alpha must equal 1"), ([10**400], "must be finite numbers")],
    ids=["falling", "out-of-range", "not-ending-at-one", "int-beyond-float"],
)
def test_bad_alphas_exit_usage_without_ease_reward(alphas, named, tmp_path, capsys, monkeypatch):
    # a list that is given is checked whichever methods run
    monkeypatch.setattr(envs, "rollout_batch", _no_training)
    cfg = nav1_defaults(7, "left")
    assert "ease_reward" not in cfg["transfer"]["methods"]
    cfg["transfer"]["schedule"]["alphas"] = alphas
    cfg["transfer"]["source_checkpoint"] = SOURCE_NAV1_7
    err = _transfer_exits_usage(cfg, tmp_path, capsys)
    assert "transfer.schedule.alphas" in err and named in err


@pytest.mark.parametrize(
    "text, named",
    [
        (None, "has obs_dim 7, action_dim 1; nav2 needs 9, 1"),
        ("not json\n", "Expecting value"),
        ('{"version": 99}\n', "unsupported checkpoint version 99"),
        ('{"version": 1, "arch": {"kind": "mlp", "obs_dim": 7, "action_dim": 1}}\n',
         "checkpoint has no key 'theta'"),
        ('[1, 2]\n', "malformed checkpoint"),
    ],
    ids=["nav1-source-on-nav2", "not-json", "other-version", "missing-keys", "not-an-object"],
)
def test_bad_source_checkpoint_exits_usage_naming_it(text, named, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(envs, "rollout_batch", _no_training)
    ckpt = SOURCE_NAV1_7
    if text is not None:
        ckpt = str(tmp_path / "source.json")
        Path(ckpt).write_text(text)
    cfg = nav2_defaults("RR")
    cfg["transfer"]["source_checkpoint"] = ckpt
    err = _transfer_exits_usage(cfg, tmp_path, capsys)
    assert ckpt in err and named in err


def test_missing_source_checkpoint_exits_runtime(tmp_path, capsys):
    cfg = nav2_defaults("RR")
    cfg["transfer"]["source_checkpoint"] = str(tmp_path / "absent.json")
    path = tmp_path / "c.yaml"
    path.write_text(serialize_config(cfg))
    rc = main(["transfer", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == EXIT_RUNTIME
    assert "source checkpoint not found" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_landscape_on_a_nav2_config_exits_usage(tmp_path, capsys):
    # the landscape task is nav1's, so a nav2 target side (two letters) does
    # not name one of its sides
    path = tmp_path / "c.yaml"
    path.write_text(serialize_config(nav2_defaults("RR")))
    rc = main(["landscape", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert err.startswith("error: environment.target_side") and "'RR'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("grid, named", [
    ({"lo": -1.0e+308, "hi": 1.0e+308}, "landscape.bucket"),  # hi - lo overflows
    ({"hi": math.inf}, "landscape.hi"),
    ({"bucket": 1.0e-300}, "landscape.bucket"),  # more points than an index holds
    ({"lo": -10**400}, "landscape.lo"),  # an int beyond the float range
], ids=["span-overflows", "infinite-hi", "tiny-bucket", "int-beyond-float"])
def test_landscape_grid_that_overflows_exits_usage(grid, named, tmp_path, capsys):
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({"landscape": grid}))
    rc = main(["landscape", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert err.startswith(f"error: {named}")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize(
    "text", ["t,x,y\n0,0.0,-8.0\n1,zz,9\n", "t,x,y\n0,0.0,-8.0\n"],
    ids=["non-numeric-field", "one-row"],
)
def test_homotopy_malformed_trajectory_is_usage_error_naming_the_file(tmp_path, capsys, text):
    region = write_region(tmp_path)
    a = write_traj(tmp_path, "a.csv", side_traj(-5.0))
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    rc = main(["homotopy", "--traj-a", a, "--traj-b", str(bad), "--region", region])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert err.startswith("error: ") and str(bad) in err
    assert "Traceback" not in err


# the left-passing path of the default region, one (t, x, y) row per step
LEFT_ROWS = [("0", "0.0", "-8.0"), ("1", "-3.0", "-2.0"), ("2", "-3.0", "2.0"), ("3", "0.0", "8.0")]


def write_rows(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text("t,x,y\n" + "".join(",".join(row) + "\n" for row in rows))
    return str(path)


def test_homotopy_orders_rows_by_t(tmp_path, capsys):
    region = write_region(tmp_path)
    a = write_rows(tmp_path, "a.csv", LEFT_ROWS)
    b = write_rows(tmp_path, "b.csv", [LEFT_ROWS[k] for k in (0, 2, 1, 3)])
    assert main(["homotopy", "--traj-a", a, "--traj-b", b, "--region", region]) == EXIT_OK
    out = capsys.readouterr().out
    assert "trajectory A: class L" in out and "trajectory B: class L" in out


@pytest.mark.parametrize("t", ["1", "zz", "nan"], ids=["duplicate", "non-numeric", "nan"])
def test_homotopy_bad_t_is_usage_error_naming_the_file(tmp_path, capsys, t):
    region = write_region(tmp_path)
    a = write_rows(tmp_path, "a.csv", LEFT_ROWS)
    bad = write_rows(tmp_path, "bad.csv", [(t,) + row[1:] if k == 2 else row
                                            for k, row in enumerate(LEFT_ROWS)])
    rc = main(["homotopy", "--traj-a", a, "--traj-b", bad, "--region", region])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert err.startswith("error: ") and bad in err
    assert "Traceback" not in err


# each file flag, with the command that takes it and that command's flags
FILE_FLAGS = {
    "--config": ("transfer", "--config", "--out"),
    "--region": ("homotopy", "--traj-a", "--traj-b", "--region"),
    "--traj-a": ("homotopy", "--traj-a", "--traj-b", "--region"),
    "--traj-b": ("homotopy", "--traj-a", "--traj-b", "--region"),
    "--set-a": ("winf", "--set-a", "--set-b"),
    "--set-b": ("winf", "--set-a", "--set-b"),
}


@pytest.mark.parametrize("flag", list(FILE_FLAGS))
def test_directory_argument_is_usage_error_naming_it(tmp_path, capsys, flag):
    folder = tmp_path / "d"
    folder.mkdir()
    traj = write_traj(tmp_path, "a.csv", side_traj(-5.0))
    trajs = write_traj_set(tmp_path, "s.csv", [line(0, 0, 1, 0)])
    files = {"--region": write_region(tmp_path), "--traj-a": traj, "--traj-b": traj,
             "--set-a": trajs, "--set-b": trajs, "--out": str(tmp_path / "o"), flag: str(folder)}
    command, *flags = FILE_FLAGS[flag]
    rc = main([command] + [v for k in flags for v in (k, files[k])])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert err.startswith("error: ") and str(folder) in err
    assert "Traceback" not in err


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


def test_region_yaml_nan_penalty_exits_usage_naming_it(tmp_path, capsys):
    region = write_region(tmp_path, dict(REGION_DOC, penalty=math.nan))
    a = write_traj(tmp_path, "a.csv", side_traj(-5.0))
    b = write_traj(tmp_path, "b.csv", side_traj(5.0))
    assert main(["homotopy", "--traj-a", a, "--traj-b", b, "--region", region]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert region in err and "penalty must be positive, got nan" in err


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


def test_winf_ragged_sets_print_the_reference_matching(tmp_path, capsys):
    """Paths of different lengths, one with a repeated point and one with all
    its points equal: stdout is, byte for byte, what per-path resampling,
    the traj_distance loop and the list-adjacency matching give."""
    set_a = [line(0, 0, 1, 2, n=5), Trajectory(np.array([(0.0, 0.0), (1.0, 2.5), (1.0, 2.5), (2.0, 2.5)])),
             line(-1, 0, 0.5, 3, n=11)]
    set_b = [Trajectory(np.full((7, 2), 0.25)), line(0, 0.5, 2, 2, n=3), line(-0.5, 0, 0.5, 3, n=8)]
    a = write_traj_set(tmp_path, "a.csv", set_a)
    b = write_traj_set(tmp_path, "b.csv", set_b)
    assert main(["winf", "--set-a", a, "--set-b", b]) == EXIT_OK
    ra = [Trajectory(reference_resample(t, 11)) for t in set_a]
    rb = [Trajectory(reference_resample(t, 11)) for t in set_b]
    value, assignment = listkuhn_bottleneck(np.array([[traj_distance(x, y) for y in rb] for x in ra]))
    want = [f"w_infinity = {value!r}"] + [f"match {i} -> {j}" for i, j in enumerate(assignment)]
    assert capsys.readouterr().out == "\n".join(want) + "\n"


@pytest.mark.parametrize("length", ["0", "-3", "1"])
def test_winf_length_below_two_is_usage_error(tmp_path, capsys, length):
    a = write_traj_set(tmp_path, "a.csv", [line(0, 0, 1, 0)])
    assert main(["winf", "--set-a", a, "--set-b", a, "--length", length]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--length" in err
    assert "Traceback" not in err


def test_trajectory_set_groups_sorted(tmp_path):
    dist = load_trajectory_set(
        write_traj_set(tmp_path, "a.csv", [line(0, 0, 1, 0), line(0, 0, 0, 1)])
    )
    assert len(dist.samples) == 2


def test_trajectory_set_ids_sort_numerically(tmp_path):
    """Ids 0-11 load in the order 0, 1, 2, ..., 11, not 0, 1, 10, 11, 2, ..."""
    trajs = [line(k, 0, k, 1) for k in range(12)]
    dist = load_trajectory_set(write_traj_set(tmp_path, "a.csv", trajs))
    assert [float(t.states[0, 0]) for t in dist.samples] == list(range(12))


@pytest.mark.parametrize("row", ["a,0,0.0,0.0", "nan,0,0.0,0.0", "0,0,x,0.0", "0,0,0.0",
                                 "0,1,2.0,2.0", "0,z,0.0,0.0", "0,nan,0.0,0.0"])
def test_winf_bad_row_is_usage_error_naming_the_file(tmp_path, capsys, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"traj,t,x,y\n0,1,1.0,1.0\n{row}\n")
    a = write_traj_set(tmp_path, "a.csv", [line(0, 0, 1, 0)])
    assert main(["winf", "--set-a", str(bad), "--set-b", a]) == EXIT_USAGE
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("rows, named", [
    (["0,0,bad_x,0.0", "0,bad_t,0.0,0.0"], "'bad_x'"),
    (["0,0,0.0,bad_y", "0,1,0.0"], "'bad_y'"),
    (["0,0,0.0", "0,bad_t,0.0,0.0"], "data row 1 has 3 fields"),
])
def test_trajectory_set_names_the_first_bad_field_in_file_order(tmp_path, rows, named):
    bad = tmp_path / "bad.csv"
    bad.write_text("traj,t,x,y\n" + "\n".join(rows) + "\n")
    with pytest.raises(ConfigError, match=named):
        load_trajectory_set(bad)


# ------------------------------------------------------------ plot


def test_plot_missing_run_is_runtime_error(tmp_path, capsys):
    assert main(["plot", "--run", str(tmp_path)]) == EXIT_RUNTIME
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, edit",
    [
        ("runs.csv", lambda text: text.replace("\nnaive,nav1-7,0,", "\nnaive,nav1-7,x,")),
        ("runs.csv", lambda text: text.replace(",9.0,L\n", ",9.0\n")),
        ("curves/ease_barrier-0.csv", lambda text: text.replace(",2.0", ",abc")),
        ("trajs/naive-0-final.csv", lambda text: "".join(text.splitlines(True)[:2])),
    ],
    ids=["non-integer-seed", "short-row", "non-number-curve-value", "one-row-trajectory"],
)
def test_plot_malformed_run_file_exits_usage_naming_it(name, edit, tmp_path, capsys):
    make_fake_run_dir(tmp_path)
    path = tmp_path / name
    path.write_text(edit(path.read_text()))
    assert main(["plot", "--run", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: bad ") and f" {path}: " in err
    assert "Traceback" not in err


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
