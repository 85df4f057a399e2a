"""Each checker must catch a hand-made bad output and pass a good one.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import itertools
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import easerl.homotopy  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from easerl.envs import landscape_make  # noqa: E402
from easerl.rl import GridSpec, landscape_scan  # noqa: E402
from easerl.seeding import derive_seed, rng_for  # noqa: E402

NAV1 = (-3.5, -1.0, 3.5, 1.0)
LEFT_PATH = [(0, -8), (-4.5, -3), (-4.5, 3), (0, 9.5)]
# every sample is outside the barrier, but the segment between the third and
# fourth sample cuts across the barrier's lower left corner
CORNER_CLIP = [(0, -8), (-4, -3), (-3.8, -0.6), (-3.2, -1.2), (-4.5, 3), (0, 9.5)]


def test_corner_clip_between_samples_is_caught():
    assert not any(checks.segment_touches_rect(x, y, x, y, NAV1) for x, y in CORNER_CLIP)
    assert checks.path_touches_rects(CORNER_CLIP, [NAV1])
    assert checks.check_converged_path(CORNER_CLIP, NAV1, "L", "L")
    assert not checks.check_converged_path(LEFT_PATH, NAV1, "L", "L")


def test_wrong_side_and_wrong_label_are_caught():
    right = [(x * -1, y) for x, y in LEFT_PATH]
    assert checks.side_passed(LEFT_PATH, NAV1) == "L"
    assert checks.side_passed(right, NAV1) == "R"
    assert checks.check_converged_path(right, NAV1, "L", "L")
    assert checks.check_converged_path(LEFT_PATH, NAV1, "L", "R")
    # a path that stops below the barrier passes on no side
    assert checks.side_passed(LEFT_PATH[:2], NAV1) is None


def _runs():
    return [
        {"method": "ease_barrier", "env": "nav1-7", "seed": 3, "total_steps": 120_500,
         "converged": True, "stage_steps": [40_000, 30_500, 50_000], "final_label": "L"},
        {"method": "ease_barrier", "env": "nav1-7", "seed": 4, "total_steps": 199_000,
         "converged": False, "stage_steps": [60_000, 139_000], "final_label": "L"},
        {"method": "naive", "env": "nav1-7", "seed": 3, "total_steps": 199_940,
         "converged": False, "stage_steps": [199_940], "final_label": ""},
        {"method": "naive", "env": "nav1-7", "seed": 4, "total_steps": 199_930,
         "converged": False, "stage_steps": [199_930], "final_label": "R"},
    ]


def _grid_errors(runs, rows, text):
    return checks.check_transfer_grid(runs, ["ease_barrier", "naive"], [3, 4], 200_000, rows, text)


def test_table_rule():
    rows, text = checks.expected_table(_runs(), 200_000)
    # ease_barrier: one of two failed, charged the budget: mean 160.2k, std 39.8k
    assert rows[1] == ["ease_barrier", "nav1-7", "2", "1", "160.2", "39.8", ""]
    assert rows[2] == ["naive", "nav1-7", "2", "2", ">budget", "-", ">budget"]
    assert text.splitlines()[0].split() == rows[0]
    assert not _grid_errors(_runs(), rows, text)


def test_wrong_table_row_is_caught():
    rows, text = checks.expected_table(_runs(), 200_000)
    bad = [r[:] for r in rows]
    bad[1][4] = "120.5"  # the failed run not charged the full budget
    assert _grid_errors(_runs(), bad, text)
    assert _grid_errors(_runs(), rows, text.replace(">budget", "200.0", 1))


def test_bad_runs_csv_is_caught():
    rows, text = checks.expected_table(_runs(), 200_000)
    runs = _runs()
    runs[0]["stage_steps"] = [40_000, 30_500, 50_001]
    assert _grid_errors(runs, rows, text)
    runs = _runs()
    runs[2]["total_steps"] = runs[2]["stage_steps"][0] = 200_001  # over budget
    assert any("outside" in e for e in _grid_errors(runs, *checks.expected_table(runs, 200_000)))
    assert _grid_errors(_runs()[:3], *checks.expected_table(_runs()[:3], 200_000))


def _random_dist(seed, n=6):
    return np.round(np.random.default_rng(seed).uniform(0, 10, (n, n)), 1)


def _bottleneck(perm, dist):
    return max(dist[i, p] for i, p in enumerate(perm))


def test_matching_one_level_too_high_is_caught():
    for seed in range(5):
        dist = _random_dist(seed)
        perms = list(itertools.permutations(range(6)))
        best = min(perms, key=lambda p: _bottleneck(p, dist))
        value = _bottleneck(best, dist)
        assert value == checks.brute_force_bottleneck(dist)
        assert not checks.check_bottleneck(dist, value, list(best))
        # the next higher value any permutation attains: an entry, attained,
        # but not the minimum
        worse = min((p for p in perms if _bottleneck(p, dist) > value),
                    key=lambda p: _bottleneck(p, dist))
        errors = checks.check_bottleneck(dist, _bottleneck(worse, dist), list(worse))
        assert errors == [f"a perfect matching exists below {_bottleneck(worse, dist)!r}"]


def test_bad_assignment_or_value_is_caught():
    dist = _random_dist(7)
    best = min(itertools.permutations(range(6)), key=lambda p: _bottleneck(p, dist))
    value = _bottleneck(best, dist)
    assert checks.check_bottleneck(dist, value, [0, 0, 1, 2, 3, 4])
    assert checks.check_bottleneck(dist, value + 0.05, list(best))
    assert checks.check_bottleneck(dist, value - 0.05, list(best))


def test_max_matching_size_needs_augmenting_paths():
    # greedy row-by-row matching gets 2; the maximum is 3
    allowed = np.array([[1, 1, 0], [1, 0, 0], [0, 1, 1]], dtype=bool)
    assert checks.max_matching_size(allowed) == 3
    assert checks.max_matching_size(np.array([[1, 0], [1, 0]], dtype=bool)) == 1


def test_resample_keeps_endpoints_and_spacing():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0], [3.0, 4.0]])
    out = checks.resample(pts, 8)
    assert np.array_equal(out[0], pts[0]) and np.array_equal(out[-1], pts[-1])
    steps = np.hypot(*np.diff(out, axis=0).T)
    # uniform along the polyline except where a step rounds the corner
    assert np.allclose(np.sort(steps)[2:], 1.0)


def test_landscape_simulator_matches_and_catches_a_tampered_cell():
    env = landscape_make(5, "left")
    res = landscape_scan(env, GridSpec(-1.0, -0.8, 0.1), 2, seed=11, log_std=0.0)
    sim = checks.LandscapeSim(5, target_left=True)
    for i, j in [(0, 0), (1, 2), (2, 1)]:
        tapes = [rng_for(derive_seed(11, "cell", i, j, "ep", e), "noise").standard_normal((100, 1))
                 for e in range(2)]
        want, entered = sim.cell((res.thetas[i], res.thetas[j]), 0.0, tapes)
        assert checks.close(res.loss_barrier[i, j], want["barrier"], 1e-9)
        assert checks.close(res.loss_free[i, j], want["free"], 1e-9)
        assert not checks.close(res.loss_barrier[i, j] * (1 + 1e-6), want["barrier"], 1e-9)
        if not entered:
            assert res.loss_barrier[i, j] == res.loss_free[i, j]


def test_segment_max_interpolates():
    thetas = [0.0, 1.0]
    loss = [[0.0, 0.0], [0.0, 4.0]]
    assert checks.bilinear_segment_max(thetas, loss, (0, 0), (1, 1)) == 4.0
    assert checks.bilinear_segment_max(thetas, loss, (0, 0), (0.5, 0.5)) == 1.0


def test_generated_paths_have_their_built_class():
    rng = np.random.default_rng(5)
    for region, rects, ref in (("nav1-7", workloads.NAV1_RECTS, "L"),
                               ("nav2", workloads.NAV2_RECTS, "LL")):
        paths = workloads.make_set(rng, region, 200, ref)
        assert paths[0][1] == ref
        assert {label for _, label in paths} >= {None, ref}
        for points, label in paths:
            assert len(points) == workloads.POINTS
            assert checks.path_touches_rects(points, rects) == (label is None)
            if label is not None:
                assert "".join(checks.side_passed(points, r) for r in rects) == label


def test_trajectory_check_catches_a_wrong_label():
    wl = workloads.TrajectoryAnalysis()
    wl.set_size = 8
    inp = wl.setup(seed=2, rnd=0, workdir="")
    res = wl.run(inp)
    assert not wl.check(inp, res)
    labels = res["nav2"]["labels"]
    k = next(i for i, (got, _) in enumerate(labels) if got != "collides")
    flipped = labels[k][0].translate(str.maketrans("LR", "RL"))
    labels[k] = (flipped, labels[k][1])
    assert any(f"path {k}: classified {flipped}" in e for e in wl.check(inp, res))


def test_failed_operations_are_counted_and_not_checked(monkeypatch):
    wl = workloads.TrajectoryAnalysis()
    wl.set_size = 8
    inp = wl.setup(seed=2, rnd=0, workdir="")
    collides, calls = easerl.homotopy.collides, []

    def collides_failing_once(t, barrier):
        calls.append(t)
        if len(calls) == 3:
            raise RecursionError("maximum recursion depth exceeded")
        return collides(t, barrier)

    def matching_failing(a, b):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(easerl.homotopy, "collides", collides_failing_once)
    monkeypatch.setattr(easerl.homotopy, "w_infinity_matching", matching_failing)
    res = wl.run(inp)
    assert (res["attempted"], res["failed"]) == (2 * (2 * 8 + 2), 1 + 4)
    labels = res["nav1-7"]["labels"] + res["nav2"]["labels"]
    assert sum(label is None for label in labels) == 1
    assert res["nav1-7"]["big"] is None and res["nav2"]["small"] is None
    assert res["work"] == (4 * 8 - 1) / 2
    assert not wl.check(inp, res)


def test_a_check_that_raises_is_a_failed_check(tmp_path):
    wl = workloads.Landscape()
    inp = wl.setup(seed=1, rnd=0, workdir=str(tmp_path))  # the landscape was never run
    errors = run.checked(wl, inp, {"attempted": 1, "failed": 0})
    assert len(errors) == 1 and "checking raised FileNotFoundError" in errors[0]
