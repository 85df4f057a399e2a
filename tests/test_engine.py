"""The lockstep rollout engine: batch-size independence, agreement with a
plain per-step loop, and the landscape scan's simulate-once contract."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from easerl import envs
from easerl.envs import (
    RewardSpec,
    angle_make,
    full_reward,
    landscape_make,
    mean_rollout,
    nav1_make,
    nav2_make,
    noise_tapes,
    rollout_batch,
    rollout_record,
)
from easerl.geometry import ConvexPolygon, IntervalSet, RegionSet
from easerl.rl import Arch, GridSpec, PolicyParams, init_policy, landscape_scan
from easerl.seeding import rng_for

ENVS = {
    "nav1-7": lambda: nav1_make(7, "left"),
    "nav1-1": lambda: nav1_make(1, "right"),
    "nav2": lambda: nav2_make("LR"),
    "angle": lambda: angle_make("up"),
    "landscape": lambda: landscape_make(5, "left"),
}


def make_policy(env, kind, seed, scale):
    arch = Arch(kind, env.spec.state_dim, env.spec.action_dim, hidden=8)
    pol = init_policy(arch, seed)
    pol.theta = np.random.default_rng(seed).normal(scale=scale, size=pol.theta.shape)
    return pol


def make_spec(env, mode, alpha):
    if mode == "reward_weight":
        return RewardSpec("reward_weight", alpha=alpha)
    if isinstance(env.barrier, IntervalSet):
        lo, hi = env.barrier.intervals[0]
        sub = IntervalSet(((lo, lo + alpha * (hi - lo) + 1e-3),), env.barrier.penalty)
    else:
        x0, y0, x1, y1 = env.barrier.parts[0].bbox()
        w = max(alpha * (x1 - x0), 0.5)
        sub = RegionSet(
            (ConvexPolygon.rectangle(0.5 * (x0 + x1), 0.5 * (y0 + y1), w, y1 - y0),),
            env.barrier.penalty,
        )
    return RewardSpec("barrier_set", active=sub)


def assert_episode_equal(batch, b, single, env):
    t_len = batch.lengths[b]
    assert t_len == single.lengths[0]
    for name in ("obs", "actions", "rewards", "base", "member"):
        assert np.array_equal(getattr(batch, name)[b, :t_len], getattr(single, name)[0, :t_len]), name
    assert np.array_equal(batch.states[b, : t_len + 1], single.states[0, : t_len + 1])
    assert batch.returns[b] == single.returns[0]
    assert batch.collided[b] == single.collided[0]
    assert np.array_equal(batch.trajectory(env, b).states, single.trajectory(env, 0).states)


class TestBatchSizeIndependence:
    @given(
        env_name=st.sampled_from(sorted(ENVS)),
        kind=st.sampled_from(["linear", "mlp"]),
        policy_seed=st.integers(0, 10_000),
        scale=st.sampled_from([0.0, 0.1, 0.5, 2.0]),
        mode=st.sampled_from(["reward_weight", "barrier_set"]),
        alpha=st.sampled_from([0.0, 0.37, 1.0]),
        seeds=st.lists(st.integers(0, 2**31 - 1), min_size=2, max_size=7),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_at_a_time_equals_all_at_once(
        self, env_name, kind, policy_seed, scale, mode, alpha, seeds
    ):
        env = ENVS[env_name]()
        pol = make_policy(env, kind, policy_seed, scale)
        spec = make_spec(env, mode, alpha)
        batch = rollout_batch(env, pol, spec, noise_tapes(env, seeds))
        for b, seed in enumerate(seeds):
            single = rollout_batch(env, pol, spec, noise_tapes(env, [seed]))
            assert_episode_equal(batch, b, single, env)
            rec = rollout_record(env, pol, spec, seed)
            assert np.array_equal(rec.trajectory.raw_states, batch.states[b, : batch.lengths[b] + 1])
            assert rec.ret == batch.returns[b]

    def test_episodes_ending_at_different_steps(self):
        # a zero-mean policy drives straight at the goal band; the noise
        # makes some episodes arrive early and others run out the horizon
        env = nav1_make(1, "left")
        pol = make_policy(env, "linear", 0, 0.0)
        seeds = list(range(12))
        batch = rollout_batch(env, pol, full_reward(env), noise_tapes(env, seeds))
        assert len(set(batch.lengths.tolist())) > 3
        assert batch.lengths.max() == env.spec.horizon
        for b, seed in enumerate(seeds):
            single = rollout_batch(env, pol, full_reward(env), noise_tapes(env, [seed]))
            assert_episode_equal(batch, b, single, env)

    def test_mean_rollout_is_the_zero_noise_episode(self):
        env = nav2_make("RR")
        pol = make_policy(env, "mlp", 3, 0.3)
        zero = np.zeros((3, env.spec.horizon, 1))
        batch = rollout_batch(env, pol, full_reward(env), zero)
        traj = mean_rollout(env, pol, full_reward(env))
        for b in range(3):
            assert np.array_equal(batch.trajectory(env, b).raw_states, traj.raw_states)

    def test_entries_after_an_episode_ends_are_zero(self):
        env = nav1_make(1, "left")
        pol = make_policy(env, "linear", 0, 0.0)
        batch = rollout_batch(env, pol, full_reward(env), noise_tapes(env, range(6)))
        for b, t_len in enumerate(batch.lengths):
            assert not np.any(batch.rewards[b, t_len:])
            assert not np.any(batch.obs[b, t_len:])

    def test_empty_batch(self):
        env = nav1_make(7, "left")
        batch = rollout_batch(env, make_policy(env, "linear", 0, 0.1), full_reward(env),
                              noise_tapes(env, []))
        assert batch.lengths.shape == (0,) and batch.returns.shape == (0,)


# --------------------------------------------------------------------------
# a plain per-step loop over Python floats, independent of the engine and of
# the environments' array methods


def _policy_mean(pol: PolicyParams, obs: list) -> float:
    x = np.array(obs)
    if pol.arch.kind == "linear":
        return float(pol.theta @ x)
    h, i = pol.arch.hidden, pol.arch.obs_dim
    w1 = pol.theta[: h * i].reshape(h, i)
    b1 = pol.theta[h * i : h * i + h]
    w2 = pol.theta[h * i + h : h * i + 2 * h]
    b2 = pol.theta[-1]
    return float(w2 @ np.tanh(w1 @ x + b1) + b2)


def _in_poly(poly, x, y) -> bool:
    v = poly.vertices
    for k in range(len(v)):
        a, b = v[k], v[(k + 1) % len(v)]
        if (b.x - a.x) * (y - a.y) - (b.y - a.y) * (x - a.x) < -1e-9:
            return False
    return True


def _in_region(region, x, y) -> bool:
    return any(_in_poly(p, x, y) for p in region.parts)


def _car_loop(env, pol, spec, seed):
    tape = rng_for(seed, "noise").standard_normal((env.spec.horizon, 1))
    x, y = env.start
    h, v, w, t = math.pi / 2.0, 0.0, 0.0, 0.0
    flags = [0.0] * len(env.barrier_tops)
    goal_y = env.goal_poly.bbox()[1]
    region = env.barrier if spec.mode == "reward_weight" else spec.active
    charge = spec.alpha * env.barrier.penalty if spec.mode == "reward_weight" else env.barrier.penalty
    states, members, rewards = [(x, y)], [], []
    for k in range(env.spec.horizon):
        if env.obs_mode == "position":
            obs = [x / 10.0, y / 10.0]
        else:
            obs = [x / 10.0, y / 10.0, math.cos(h), math.sin(h), v / env.v_set,
                   w / env.steer_max, t / env.spec.horizon] + flags
        std = math.exp(pol.log_std[0])
        a = min(1.0, max(-1.0, _policy_mean(pol, obs) + std * tape[k, 0]))
        w = a * env.steer_max
        h2 = h + w * env.dt
        v2 = v + env.kp * (env.v_set - v) * env.dt
        x2 = x + v2 * math.cos(h2) * env.dt
        y2 = y + v2 * math.sin(h2) * env.dt
        flags2 = [1.0 if f == 0.0 and y2 >= top else f for f, top in zip(flags, env.barrier_tops)]
        t_norm = t / env.spec.horizon
        side = 1.0 if env.target_bits[0] == 1 else -1.0
        r = env.c_side * (1.0 - t_norm) * side * math.sin(h2 - math.pi / 2.0)
        r += -env.c_goal * t_norm * max(0.0, goal_y - y2) / 16.0
        r += env.c_pot * (max(0.0, goal_y - y) - max(0.0, goal_y - y2))
        for i, (f, f2) in enumerate(zip(flags, flags2)):
            if f == 0.0 and f2 == 1.0 and (x2 < 0.0) == (env.target_bits[i] == 1):
                r += env.side_bonus
        in_goal = _in_poly(env.goal_poly, x2, y2)
        if in_goal:
            r += env.goal_bonus
        member = _in_region(region, x2, y2)
        rewards.append(r - (charge if member else 0.0))
        members.append(member)
        x, y, h, v, t, flags = x2, y2, h2, v2, t + 1.0, flags2
        states.append((x, y))
        if in_goal or t >= env.spec.horizon:
            break
    return np.array(states), members, rewards


def _angle_loop(env, pol, spec, seed):
    tape = rng_for(seed, "noise").standard_normal((env.spec.horizon, 1))
    ang, vel, t = env.start_angle, 0.0, 0.0
    region = env.band if spec.mode == "reward_weight" else spec.active
    charge = spec.alpha * env.band.penalty if spec.mode == "reward_weight" else env.band.penalty
    states, members, rewards = [(0.0, ang)], [], []
    for k in range(env.spec.horizon):
        obs = [ang, vel, t / env.spec.horizon]
        std = math.exp(pol.log_std[0])
        a = min(1.0, max(-1.0, _policy_mean(pol, obs) + std * tape[k, 0])) * env.torque_max
        vel = env.damping * vel + a * env.dt
        ang = ang + vel * env.dt
        t += 1.0
        member = any(lo - 1e-9 <= ang <= hi + 1e-9 for lo, hi in region.intervals)
        r = -env.c_angle * abs(ang - env.goal_angle) - env.c_torque * a * a
        rewards.append(r - (charge if member else 0.0))
        members.append(member)
        states.append((t * env.dt, ang))
        if t >= env.spec.horizon:
            break
    return np.array(states), members, rewards


@pytest.mark.parametrize("env_name", sorted(ENVS))
@pytest.mark.parametrize("kind", ["linear", "mlp"])
@pytest.mark.parametrize("mode", ["reward_weight", "barrier_set"])
def test_engine_matches_plain_loop(env_name, kind, mode):
    env = ENVS[env_name]()
    pol = make_policy(env, kind, 17, 0.3)
    spec = make_spec(env, mode, 0.37)
    seeds = [5, 6, 7, 8, 9]
    batch = rollout_batch(env, pol, spec, noise_tapes(env, seeds))
    loop = _angle_loop if env_name == "angle" else _car_loop
    for b, seed in enumerate(seeds):
        states, members, rewards = loop(env, pol, spec, seed)
        traj = batch.trajectory(env, b)
        assert len(traj) == len(states)
        assert batch.member[b, : len(members)].tolist() == members
        assert batch.collided[b] == any(members)
        assert np.allclose(traj.states, states, rtol=0.0, atol=1e-12)
        assert np.allclose(batch.rewards[b, : len(rewards)], rewards, rtol=1e-12, atol=1e-9)


# --------------------------------------------------------------------------
# landscape scan


def test_landscape_scan_simulates_each_trajectory_once(monkeypatch):
    env = landscape_make(5, "left")
    grid = GridSpec(lo=-1.0, hi=1.1, bucket=0.7)  # 4 x 4 cells
    samples = 3
    calls = []
    inner = envs.rollout_batch

    def counting(env_, policy, spec, noise):
        batch = inner(env_, policy, spec, noise)
        calls.append(batch)
        return batch

    monkeypatch.setattr(envs, "rollout_batch", counting)
    res = landscape_scan(env, grid, samples, seed=5)
    n = len(res.thetas)
    assert n == 4
    assert sum(b.lengths.size for b in calls) == n * n * samples
    entered = np.array([b.collided.any() for b in calls]).reshape(n, n)
    assert entered.any() and not entered.all()
    assert np.array_equal(res.loss_barrier[~entered], res.loss_free[~entered])
    assert np.all(res.loss_barrier[entered] != res.loss_free[entered])
