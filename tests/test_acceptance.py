"""Acceptance gate: one test per stated criterion, at the stated tolerance.

Each test prints a single machine-readable verdict line
(``criterion NN <slug>: PASS|FAIL (details)``) and then asserts.
Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
verdict lines of passing criteria too).
"""

import math
import os
import shutil
import time

import numpy as np
import pytest

from easerl.config import default_config, nav1_defaults, nav2_defaults, serialize_config, validate_config
from easerl.curriculum import StageBudgets, find_sb1, relax_until_crossing
from easerl.envs import (
    RewardSpec,
    drive,
    full_reward,
    landscape_make,
    mean_rollout,
    nav1_make,
    relaxed_reward,
    rollout_record,
    serve,
    step,
)
from easerl.geometry import ConvexPolygon, Point2, RegionSet, contains
from easerl.homotopy import (
    EmpiricalDistribution,
    Trajectory,
    collides,
    divides,
    same_class,
    traj_distance,
    w_infinity_matching,
)
from easerl.rl import (
    GridSpec,
    PolicyParams,
    episode_grad,
    evaluate_detail,
    landscape_scan,
    load_checkpoint,
    segment_profile,
)
from easerl.runner import env_from_config, job_from_config, schedule_from_config
from easerl.curriculum import transfer
from easerl.seeding import derive_seed

from test_homotopy import brute_force_bottleneck, loop_encloses_barrier
from test_rl import numeric_grad, random_policy, mean_batch
from test_envs import probe_states, seeded_policy

pytestmark = pytest.mark.acceptance

ASSETS = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "assets"))


def verdict(num: int, slug: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {slug}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {slug}: {detail}"


# --------------------------------------------------------------------------
# 1. gradient oracle


def test_criterion_01_gradient_oracle():
    t0 = time.time()
    rng = np.random.default_rng(11)
    worst = 0.0
    for i in range(100):
        kind = "linear" if i % 2 == 0 else "mlp"
        pol = random_policy(rng, kind)
        s = rng.normal(size=4)
        a = mean_batch(pol, s.reshape(1, -1))[0] + rng.normal(size=2) * np.exp(pol.log_std)
        got = episode_grad(pol, s[None], a[None], np.ones(1))
        want = numeric_grad(pol, s.reshape(1, -1), a.reshape(1, -1), np.ones(1))
        rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-6)
        worst = max(worst, float(rel.max()))
    elapsed = time.time() - t0
    verdict(1, "gradient-oracle", worst < 1e-4 and elapsed < 10.0,
            f"100 instances, worst rel err {worst:.2e}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. bottleneck Wasserstein exactness


def test_criterion_02_w_infinity_exact():
    t0 = time.time()
    rng = np.random.default_rng(23)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(1, 8))
        L = int(rng.integers(2, 6))
        mu = EmpiricalDistribution(
            tuple(Trajectory(rng.uniform(-5, 5, size=(L, 2))) for _ in range(n))
        )
        nu = EmpiricalDistribution(
            tuple(Trajectory(rng.uniform(-5, 5, size=(L, 2))) for _ in range(n))
        )
        value, assign = w_infinity_matching(mu, nu)
        # the oracle sees the same arc-length-resampled samples the matcher does
        a, b = mu.resampled(L).samples, nu.resampled(L).samples
        dist = np.array([[traj_distance(x, y) for y in b] for x in a])
        oracle = brute_force_bottleneck(dist)
        attained = max(dist[i, assign[i]] for i in range(n))
        if value != oracle or attained != value:  # exact float equality
            mismatches += 1
    elapsed = time.time() - t0
    verdict(2, "w-infinity-exact", mismatches == 0 and elapsed < 30.0,
            f"200 instances (n<=7), {mismatches} mismatches, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 3. homotopy oracle vs grid deformation oracle


def _scene_path(rng, rect, side, start, goal):
    x0, y0, x1, y1 = rect.bbox()
    ys = np.linspace(start.y + 1e-9, goal.y - 1e-9, 28)
    xs = np.zeros_like(ys)
    for i, y in enumerate(ys[1:-1], start=1):
        if y0 - 0.7 <= y <= y1 + 0.7:
            if side == "left":
                xs[i] = rng.uniform(x0 - 3.0, x0 - 0.3)
            else:
                xs[i] = rng.uniform(x1 + 0.3, x1 + 3.0)
        else:
            xs[i] = rng.uniform(x0 - 3.0, x1 + 3.0)
    xs[0], xs[-1] = start.x, goal.x
    return Trajectory(np.stack([xs, ys], axis=1))


def test_criterion_03_homotopy_oracle_soundness():
    t0 = time.time()
    rng = np.random.default_rng(31)
    start, goal = Point2(0.0, -8.0), Point2(0.0, 9.0)
    scenes = 0
    agreements = 0
    while scenes < 100:
        cx, cy = rng.uniform(-2.5, 2.5), rng.uniform(-3.0, 3.0)
        w, h = rng.uniform(2.0, 7.0), rng.uniform(1.0, 4.0)
        rect = ConvexPolygon.rectangle(cx, cy, w, h)
        region = RegionSet((rect,), 1000.0)
        a = _scene_path(rng, rect, rng.choice(["left", "right"]), start, goal)
        b = _scene_path(rng, rect, rng.choice(["left", "right"]), start, goal)
        if collides(a, region) or collides(b, region):
            continue
        scenes += 1
        same = same_class(a, b, region, start, goal)
        enclosed = loop_encloses_barrier(a, b, rect, start, goal)
        if same == (not enclosed):
            agreements += 1
    elapsed = time.time() - t0
    verdict(3, "homotopy-oracle", agreements == 100 and elapsed < 120.0,
            f"{agreements}/100 scenes agree with the deformation oracle, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 4. reward interpolation contracts on a 200x200 probe grid


def test_criterion_04_reward_contracts():
    t0 = time.time()
    env = nav1_make(5, "left")
    # one batched step per reward spec over the whole grid; test_engine checks
    # single-state steps against the engine
    states = np.array(probe_states(env, n_side=200))
    action = np.zeros((len(states), 1))
    alphas = (0.0, 0.25, 0.5, 0.75, 1.0)
    inner = RegionSet((ConvexPolygon.rectangle(0.0, 0.0, 3.0, 2.0),), env.barrier.penalty)
    chain = (inner, env.barrier)
    relaxed = step(env, states, action, relaxed_reward(env))
    member = contains(env.barrier, relaxed.state[:, :2])
    base = relaxed.base
    hit = int(member.sum())
    rewards = [step(env, states, action, RewardSpec(env.barrier, a)).reward
               for a in alphas]
    ok = all(np.array_equal(r, np.where(member, base - a * env.barrier.penalty, base))
             for a, r in zip(alphas, rewards))
    # endpoints: alpha=0 is the relaxed reward, alpha=1 the target reward
    ok &= np.array_equal(rewards[0], relaxed.reward)
    ok &= np.array_equal(rewards[-1], step(env, states, action, full_reward(env)).reward)
    # nested subsets never increase the reward
    sub = [step(env, states, action, RewardSpec(c, 1.0)).reward for c in chain]
    ok &= bool(np.all((rewards[0] >= sub[0]) & (sub[0] >= sub[1])))
    elapsed = time.time() - t0
    verdict(4, "reward-contracts", ok and hit > 100,
            f"200x200 grid, {hit} barrier states exercised, exact, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 5. transition invariance across curriculum stages


def test_criterion_05_transition_invariance():
    t0 = time.time()
    env = nav1_make(7, "left")
    pol = seeded_policy(env)
    half = RegionSet((ConvexPolygon.rectangle(0.0, 0.0, 3.5, 2.0),), env.barrier.penalty)
    specs = [
        relaxed_reward(env),
        RewardSpec(env.barrier, 0.001),
        RewardSpec(env.barrier, 0.5),
        RewardSpec(half, 1.0),
        full_reward(env),
    ]
    ok = True
    for seed in range(10):
        recs = [rollout_record(env, pol, spec, seed=seed) for spec in specs]
        ref = recs[0]
        for rec in recs[1:]:
            ok &= np.array_equal(rec.trajectory.raw_states, ref.trajectory.raw_states)
            ok &= np.array_equal(rec.actions, ref.actions)
    elapsed = time.time() - t0
    verdict(5, "transition-invariance", ok,
            f"10 seeds x 5 stages bitwise identical, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 6. initial-barrier-subset search contract


def test_criterion_06_find_sb1_contract():
    t0 = time.time()
    passes = 0
    details = []
    for size in (5, 7):
        cfg = nav1_defaults(size, target_side="left")
        env = env_from_config(cfg)
        source, _ = load_checkpoint(os.path.join(ASSETS, f"source-nav1-{size}.json"))
        xi_s = mean_rollout(env, source, relaxed_reward(env))
        a0, a1 = env.anchors()
        schedule = schedule_from_config(cfg, env)["ease_barrier"]
        for seed in range(5):
            job = job_from_config(cfg, env, source, seed, schedule)
            budgets = StageBudgets.split(job.budget, 2)
            relax = drive(env, relax_until_crossing(job, budgets.relax))
            if not relax.converged:
                details.append(f"{size}/{seed}:no-crossing")
                continue
            xi_r = mean_rollout(env, relax.params, relaxed_reward(env))
            res = find_sb1(xi_s, xi_r, env.barrier, a0, a1)
            f2 = divides(xi_s, xi_r, res.region, a0, a1)
            f1 = collides(xi_r, res.region)
            if f1 and f2 and res.halvings <= 12 and res.inflations <= 20:
                passes += 1
            else:
                details.append(f"{size}/{seed}:f1={f1},f2={f2}")
    elapsed = time.time() - t0
    verdict(6, "find-sb1-contract", passes == 10 and elapsed < 300.0,
            f"{passes}/10 runs satisfy f1+f2 within budgets, {elapsed:.0f}s"
            + (f"; fails: {details}" if details else ""))


# --------------------------------------------------------------------------
# 7. reward-weight curriculum monotonicity (statistical)


def test_criterion_07_reward_weight_monotone():
    t0 = time.time()
    cfg = nav2_defaults("RR")  # source class LL, target class RR
    env = env_from_config(cfg)
    source, _ = load_checkpoint(os.path.join(ASSETS, "source-nav2-LL.json"))
    n_stages = len(cfg["transfer"]["schedule"]["alphas"])
    good_seeds = 0
    notes = []
    # the five runs step in lockstep; each gets the bits it gets alone
    schedule = schedule_from_config(cfg, env)["ease_reward"]
    jobs = [job_from_config(cfg, env, source, seed, schedule) for seed in range(5)]
    reports = serve(env, [transfer(job, "ease_reward") for job in jobs])
    for seed, report in enumerate(reports):
        stages = [(lab, pol) for lab, pol in report.stage_policies
                  if lab.startswith("stage-")]
        if len(stages) != n_stages:
            notes.append(f"seed{seed}:truncated@{len(stages)}")
            continue
        means, ses = [], []
        # common random numbers: every stage is scored on the same 200
        # episode seeds, so differences reflect the policies, not eval luck
        eval_seed = derive_seed(seed, "prop1-eval")
        for _, pol in stages:
            det = evaluate_detail(env, full_reward(env), pol, 200, eval_seed)
            means.append(det["mean"])
            ses.append(det["std"] / math.sqrt(200))
        monotone = all(means[k + 1] >= means[k] - ses[k] for k in range(n_stages - 1))
        if monotone:
            good_seeds += 1
        else:
            notes.append(f"seed{seed}:{[round(m) for m in means]}")
    elapsed = time.time() - t0
    verdict(7, "reward-weight-monotone", good_seeds >= 4,
            f"{good_seeds}/5 seeds nondecreasing within 1 SE over "
            f"{n_stages} stages, {elapsed:.0f}s"
            + (f"; fails: {notes}" if notes else ""))


# --------------------------------------------------------------------------
# 8. headline transfer comparison


def test_criterion_08_headline_transfer():
    t0 = time.time()
    cfg = nav1_defaults(7, target_side="left")
    env = env_from_config(cfg)
    source, _ = load_checkpoint(os.path.join(ASSETS, "source-nav1-7.json"))
    outcomes = {"ease_barrier": [], "naive": []}
    # all ten runs step in lockstep; each gets the bits it gets alone
    tasks = [(method, seed) for method in outcomes for seed in range(5)]
    schedules = schedule_from_config(cfg, env)
    reports = serve(env, [transfer(job_from_config(cfg, env, source, seed, schedules.get(method)),
                                   method)
                          for method, seed in tasks])
    for (method, _), report in zip(tasks, reports):
        outcomes[method].append(report)
    ease_conv = [r for r in outcomes["ease_barrier"] if r.converged]
    naive_conv = [r for r in outcomes["naive"] if r.converged]
    ok = len(ease_conv) >= 4 and len(naive_conv) <= 1
    if ease_conv and naive_conv:
        ok &= (np.mean([r.total_steps for r in ease_conv])
               < np.mean([r.total_steps for r in naive_conv]))
    elapsed = time.time() - t0
    verdict(8, "headline-transfer", ok and elapsed < 3600.0,
            f"ease {len(ease_conv)}/5 converged "
            f"(mean {np.mean([r.total_steps for r in ease_conv]) / 1000.0:.1f}k steps), "
            f"naive {len(naive_conv)}/5, budget 200k, {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 9. loss-landscape hump


def test_criterion_09_landscape_hump():
    t0 = time.time()
    cfg = validate_config(default_config())
    land = cfg["landscape"]
    env = landscape_make(land["barrier_size"], "left")
    grid = GridSpec(land["lo"], land["hi"], land["bucket"])
    res = landscape_scan(env, grid, land["samples_per_cell"], seed=0,
                         log_std=land["log_std"])
    p_src = tuple(land["theta_source"])
    p_tgt = tuple(land["theta_target"])
    max_b = segment_profile(res.thetas, res.loss_barrier, p_src, p_tgt).max()
    max_f = segment_profile(res.thetas, res.loss_free, p_src, p_tgt).max()
    elapsed = time.time() - t0
    verdict(9, "landscape-hump", max_b >= 2.0 * max_f and elapsed < 600.0,
            f"segment max: barrier {max_b:.0f} vs free {max_f:.0f} "
            f"(ratio {max_b / max_f:.1f}x), {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 10. W-infinity continuity in policy parameters


def test_criterion_10_w_infinity_continuity():
    t0 = time.time()
    env = nav1_make(5, "left")
    policy, _ = load_checkpoint(os.path.join(ASSETS, "source-nav1-5.json"))
    spec = relaxed_reward(env)
    rng = np.random.default_rng(42)
    direction = rng.normal(size=policy.theta.size)
    direction /= np.linalg.norm(direction)

    def traj_set(params, n=16):
        return EmpiricalDistribution(tuple(
            rollout_record(env, params, spec, derive_seed(99, "w", e)).trajectory
            for e in range(n)
        ))

    base = traj_set(policy)
    delta = 0.64
    values = []
    for _ in range(7):
        pert = PolicyParams(policy.arch, policy.theta + delta * direction,
                            policy.log_std.copy())
        values.append(w_infinity_matching(base, traj_set(pert), 64)[0])
        delta /= 2.0
    nonincreasing = all(values[k + 1] <= values[k] for k in range(6))
    elapsed = time.time() - t0
    verdict(10, "w-infinity-continuity",
            nonincreasing and values[-1] < 0.05 and elapsed < 120.0,
            f"{[round(v, 3) for v in values]}, final {values[-1]:.3f} < 0.05, "
            f"{elapsed:.0f}s")


# --------------------------------------------------------------------------
# 11. CLI determinism


def _tiny_train_cfg():
    cfg = validate_config(default_config())
    cfg["environment"] = {"name": "nav1", "barrier_size": 5, "target_side": "right"}
    cfg["training"]["max_steps"] = 1024
    cfg["training"]["eval_every"] = 512
    cfg["training"]["eval_episodes"] = 2
    cfg["training"]["convergence"] = {"center": 0.0, "half_width": 1e9, "patience": 1}
    return cfg


def _tiny_transfer_cfg():
    cfg = _tiny_train_cfg()
    cfg["transfer"]["methods"] = ["naive", "random"]
    cfg["transfer"]["seeds"] = [0]
    cfg["transfer"]["budget"] = 4096
    cfg["training"]["eval_every"] = 1024
    cfg["transfer"]["source_checkpoint"] = os.path.join(ASSETS, "source-nav1-5.json")
    return cfg


def _tiny_landscape_cfg():
    cfg = validate_config(default_config())
    cfg["environment"] = {"name": "nav1", "barrier_size": 5, "target_side": "left"}
    cfg["landscape"].update({
        "lo": -0.2, "hi": 0.2, "bucket": 0.2, "samples_per_cell": 1,
        "theta_source": [-0.2, -0.2], "theta_target": [0.2, 0.2],
    })
    return cfg


def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def _assert_identical_trees(a, b, tag, problems):
    ta, tb = _tree_bytes(a), _tree_bytes(b)
    if set(ta) != set(tb):
        problems.append(f"{tag}: file sets differ {set(ta) ^ set(tb)}")
        return
    for rel in ta:
        if ta[rel] != tb[rel]:
            problems.append(f"{tag}: {rel} differs")


def test_criterion_11_cli_determinism(tmp_path, capsys):
    from easerl.cli import main

    t0 = time.time()
    problems = []

    # train / transfer / landscape: run twice into separate dirs, compare bytes
    for tag, cfg, extra in (
        ("train", _tiny_train_cfg(), []),
        ("transfer", _tiny_transfer_cfg(), ["--workers", "1"]),
        ("landscape", _tiny_landscape_cfg(), []),
    ):
        cfg_path = tmp_path / f"{tag}.yaml"
        cfg_path.write_text(serialize_config(cfg))
        dirs = []
        for run in ("a", "b"):
            out = tmp_path / f"{tag}-{run}"
            rc = main([tag, "--config", str(cfg_path), "--seed", "7",
                       "--out", str(out)] + extra)
            assert rc == 0, f"{tag} run {run} exited {rc}"
            dirs.append(out)
        _assert_identical_trees(*dirs, tag, problems)

    # plot: regenerated SVGs must be byte-identical to the originals
    run_dir = tmp_path / "transfer-a"
    plots = run_dir / "plots"
    before = _tree_bytes(plots)
    shutil.rmtree(plots)
    assert main(["plot", "--run", str(run_dir)]) == 0
    after = _tree_bytes(plots)
    if before != after:
        problems.append("plot: regenerated SVGs differ from originals")

    # homotopy / winf: pure commands, identical stdout on rerun
    import yaml as _yaml
    region = tmp_path / "region.yaml"
    region.write_text(_yaml.safe_dump({
        "penalty": 1000.0,
        "parts": [[[-2.5, -1.0], [2.5, -1.0], [2.5, 1.0], [-2.5, 1.0]]],
        "anchors": {"start": [0.0, -8.0], "goal": [0.0, 8.0]},
    }))
    ys = np.linspace(-8, 8, 17)
    left = Trajectory(np.stack([np.where((ys > -7.5) & (ys < 7.5), -4.0, 0.0), ys], axis=1))
    from easerl.homotopy import save_trajectory
    ta = tmp_path / "ta.csv"
    save_trajectory(ta, left)
    capsys.readouterr()  # flush output of the commands above
    outs = []
    for _ in range(2):
        rc = main(["homotopy", "--traj-a", str(ta), "--traj-b", str(ta),
                   "--region", str(region)])
        assert rc == 0
        outs.append(capsys.readouterr().out)
    if outs[0] != outs[1]:
        problems.append("homotopy: stdout differs between reruns")

    setcsv = tmp_path / "set.csv"
    with open(setcsv, "w") as f:
        f.write("traj,t,x,y\n")
        for t in range(5):
            f.write(f"0,{t},{t * 0.25},{t * 0.5}\n")
    outs = []
    for _ in range(2):
        rc = main(["winf", "--set-a", str(setcsv), "--set-b", str(setcsv)])
        assert rc == 0
        outs.append(capsys.readouterr().out)
    if outs[0] != outs[1]:
        problems.append("winf: stdout differs between reruns")

    elapsed = time.time() - t0
    verdict(11, "cli-determinism", not problems,
            f"6 commands byte-identical on rerun, {elapsed:.0f}s"
            + (f"; {problems}" if problems else ""))
