"""The lockstep rollout engine: batch-size independence, stacked per-row
policies, agreement with a plain per-step loop, and the landscape scan's
simulate-once contract and bits."""

import math
import os
import sys
import threading
import weakref
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from easerl import envs, rl
from easerl.envs import (
    RewardSpec,
    RolloutBatch,
    RolloutRequest,
    full_reward,
    landscape_make,
    mean_rollout,
    nav1_barrier,
    nav1_make,
    nav2_make,
    noise_tapes,
    relaxed_reward,
    rollout_batch,
    rollout_record,
    serve,
)
from easerl.errors import NonFiniteAction
from easerl.geometry import ConvexPolygon, RegionSet, contains
from easerl.rl import (
    Arch,
    GridSpec,
    PolicyParams,
    init_policy,
    landscape_scan,
    load_checkpoint,
    log_prob_batch,
    reward_to_go,
)
from easerl.seeding import derive_seed, pcg64_states, rng_for

ASSETS = os.path.join(os.path.dirname(__file__), os.pardir, "assets")

ENVS = {
    "nav1-7": lambda: nav1_make(7, "left"),
    "nav1-1": lambda: nav1_make(1, "right"),
    "nav2": lambda: nav2_make("LR"),
    "landscape": lambda: landscape_make(5, "left"),
}


def make_policy(env, kind, seed, scale):
    arch = Arch(kind, env.spec.state_dim, env.spec.action_dim, hidden=8)
    pol = init_policy(arch, seed)
    pol.theta = np.random.default_rng(seed).normal(scale=scale, size=pol.theta.shape)
    return pol


def make_spec(env, mode, alpha):
    """A stage of a weight ramp ("reward_weight": weight alpha on the whole
    barrier) or of a subset ramp ("barrier_set": a centered piece of the
    barrier, alpha of its width, at weight 1)."""
    if mode == "reward_weight":
        return RewardSpec(env.barrier, alpha)
    x0, y0, x1, y1 = env.barrier.parts[0].bbox()
    w = max(alpha * (x1 - x0), 0.5)
    sub = RegionSet(
        (ConvexPolygon.rectangle(0.5 * (x0 + x1), 0.5 * (y0 + y1), w, y1 - y0),),
        env.barrier.penalty,
    )
    return RewardSpec(sub, 1.0)


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

    # the zero-noise batch's spec need not be the one mean_rollout asks for:
    # no reward spec changes a transition
    @pytest.mark.parametrize("make_env, spec_of", [
        (lambda: nav2_make("RR"), full_reward),
        (lambda: nav2_make("RR"), relaxed_reward),
        (lambda: nav2_make("RR"), lambda env: RewardSpec(env.barrier, 0.3)),
        (lambda: nav1_make(7, "left"), lambda env: RewardSpec(nav1_barrier(0.5), 1.0)),
    ], ids=["full", "relaxed", "weight-0.3", "nav1-subset"])
    def test_mean_rollout_is_the_zero_noise_episode(self, make_env, spec_of):
        env = make_env()
        pol = make_policy(env, "mlp", 3, 0.3)
        zero = np.zeros((3, env.spec.horizon, 1))
        batch = rollout_batch(env, pol, spec_of(env), zero)
        traj = mean_rollout(env, pol)
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


class TestStackedPolicies:
    @given(
        env_name=st.sampled_from(sorted(ENVS)),
        kind=st.sampled_from(["linear", "mlp"]),
        policy_seeds=st.lists(st.integers(0, 10_000), min_size=2, max_size=7, unique=True),
        scale=st.sampled_from([0.1, 0.5, 2.0]),
        mode=st.sampled_from(["reward_weight", "barrier_set"]),
        alpha=st.sampled_from([0.0, 0.37, 1.0]),
        tape_seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_stacked_rows_equal_separate_policies(
        self, env_name, kind, policy_seeds, scale, mode, alpha, tape_seed
    ):
        env = ENVS[env_name]()
        pols = [make_policy(env, kind, ps, scale) for ps in policy_seeds]
        rows = len(pols)
        stacked = PolicyParams(pols[0].arch, np.stack([p.theta for p in pols]), pols[0].log_std)
        assert stacked.theta.shape == (rows, pols[0].theta.size)
        spec = make_spec(env, mode, alpha)
        seeds = [tape_seed + b for b in range(rows)]
        batch = rollout_batch(env, stacked, spec, noise_tapes(env, seeds))
        lp = log_prob_batch(stacked, batch.obs, batch.actions)
        for b, (pol, seed) in enumerate(zip(pols, seeds)):
            single = rollout_batch(env, pol, spec, noise_tapes(env, [seed]))
            assert_episode_equal(batch, b, single, env)
            assert np.array_equal(lp[b], log_prob_batch(pol, batch.obs[b], batch.actions[b]))

    def test_rows_must_match_tapes(self):
        env = nav1_make(7, "left")
        pol = make_policy(env, "linear", 0, 0.1)
        stacked = PolicyParams(pol.arch, np.stack([pol.theta] * 3), pol.log_std)
        with pytest.raises(ValueError, match="3 policy rows for 2 noise tapes"):
            rollout_batch(env, stacked, full_reward(env), noise_tapes(env, [0, 1]))

    def test_theta_width_is_checked(self):
        arch = Arch("linear", 2, 1)
        with pytest.raises(ValueError, match="theta size"):
            PolicyParams(arch, np.zeros((4, 3)), np.zeros(1))


def _one_call(request):
    """A run that makes a single engine call and returns its batch."""
    return (yield request)


class TestMergedRequests:
    @given(
        env_name=st.sampled_from(["nav1-7", "nav2"]),
        kind=st.sampled_from(["linear", "mlp"]),
        requests=st.lists(
            st.tuples(
                st.integers(0, 10_000),  # policy seed
                st.sampled_from([-2.0, -0.7, 0.3]),  # log_std
                st.integers(1, 5),  # rows
                st.sampled_from(["reward_weight", "barrier_set"]),
                st.sampled_from([0.0, 0.1, 0.37, 1.0]),  # alpha, or subset size
            ),
            min_size=2,
            max_size=4,
        ),
        tape_seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_each_request_equals_its_own_call(self, env_name, kind, requests, tape_seed):
        env = ENVS[env_name]()
        reqs, first = [], tape_seed
        for policy_seed, log_std, rows, mode, alpha in requests:
            pol = make_policy(env, kind, policy_seed, 0.5)
            pol.log_std = np.array([log_std])
            seeds = range(first, first + rows)
            first += rows
            reqs.append(RolloutRequest(pol, make_spec(env, mode, alpha), noise_tapes(env, seeds)))
        with mock.patch.object(envs, "rollout_batch", wraps=envs.rollout_batch) as engine:
            merged = serve(env, [_one_call(r) for r in reqs])
        assert engine.call_count == 1
        for req, got in zip(reqs, merged):
            alone = rollout_batch(env, req.policy, req.reward_spec, req.noise)
            for f in fields(RolloutBatch):
                assert np.array_equal(getattr(got, f.name), getattr(alone, f.name)), f.name

    def test_rows_end_on_their_own(self):
        # zero-mean nav1-1 episodes reach the goal band at different steps;
        # each end drops only its own row from the merged call
        env = nav1_make(1, "left")
        pols = [make_policy(env, "mlp", 0, 0.0), make_policy(env, "mlp", 1, 0.3)]
        pols[1].log_std = np.array([0.3])
        reqs = [
            RolloutRequest(pols[0], full_reward(env), noise_tapes(env, range(6))),
            RolloutRequest(pols[1], make_spec(env, "barrier_set", 0.37), noise_tapes(env, [9, 10])),
        ]
        merged = serve(env, [_one_call(r) for r in reqs])
        assert len(set(merged[0].lengths.tolist())) > 2
        for req, got in zip(reqs, merged):
            alone = rollout_batch(env, req.policy, req.reward_spec, req.noise)
            assert np.array_equal(got.lengths, alone.lengths)
            assert np.array_equal(got.states, alone.states)

    def test_per_row_specs_are_counted(self):
        env = nav1_make(7, "left")
        pol = make_policy(env, "linear", 0, 0.1)
        with pytest.raises(ValueError, match="1 reward specs for 2 noise tapes"):
            rollout_batch(env, pol, [full_reward(env)], noise_tapes(env, [0, 1]))

    def test_per_row_log_std_rows_are_checked(self):
        arch = Arch("linear", 2, 1)
        with pytest.raises(ValueError, match="3 log_std rows for 2 theta rows"):
            PolicyParams(arch, np.zeros((2, 2)), np.zeros((3, 1)))
        per_row = PolicyParams(arch, np.zeros((2, 2)), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="shared log_std"):
            log_prob_batch(per_row, np.zeros((2, 3, 2)), np.zeros((2, 3, 1)))


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestHiddenLayer:
    """A batch keeps the MLP's hidden layer from its forward pass, and the
    update reads it there with the bits of recomputing it."""

    @staticmethod
    def mlp(seed):
        """The shipped nav1-7 source policy, its weights moved by seed:
        its episodes reach the goal at different steps."""
        pol = load_checkpoint(os.path.join(ASSETS, "source-nav1-7.json"))[0]
        pol.theta = pol.theta + np.random.default_rng(seed).normal(scale=0.05, size=pol.theta.shape)
        return pol

    @staticmethod
    def assert_hidden_of(batch, pol):
        w1, b1, _, _ = rl._unpack_mlp(pol.arch, pol.theta)
        assert batch.hidden.shape == batch.obs.shape[:2] + (pol.arch.hidden,)
        for b, t_len in enumerate(batch.lengths):
            want = np.tanh(rl._affine(batch.obs[b, :t_len], w1) + b1)
            assert same_bits(batch.hidden[b, :t_len], want), b
            assert not np.any(batch.hidden[b, t_len:]), b

    def test_one_policy(self):
        env = nav1_make(7, "left")
        pol = self.mlp(2)
        batch = rollout_batch(env, pol, full_reward(env), noise_tapes(env, range(8)))
        assert len(set(batch.lengths.tolist())) > 1
        self.assert_hidden_of(batch, pol)

    def test_merged_two_run_call(self):
        env = nav1_make(7, "left")
        pols = [self.mlp(0), self.mlp(1)]
        reqs = [
            RolloutRequest(pols[0], full_reward(env), noise_tapes(env, range(6))),
            RolloutRequest(pols[1], make_spec(env, "barrier_set", 0.37), noise_tapes(env, [9, 10])),
        ]
        with mock.patch.object(envs, "rollout_batch", wraps=envs.rollout_batch) as engine:
            merged = serve(env, [_one_call(r) for r in reqs])
        assert engine.call_count == 1
        assert len(set(np.concatenate([m.lengths for m in merged]).tolist())) > 1
        for pol, got in zip(pols, merged):
            self.assert_hidden_of(got, pol)

    def test_a_linear_policy_has_none(self):
        env = nav1_make(7, "left")
        batch = rollout_batch(env, make_policy(env, "linear", 0, 0.1), full_reward(env),
                              noise_tapes(env, range(3)))
        assert batch.hidden.shape == (3, env.spec.horizon, 0)

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_episode_grad_reads_it_with_the_same_bits(self, kind):
        env = nav1_make(7, "left")
        pol = self.mlp(3) if kind == "mlp" else make_policy(env, "linear", 3, 0.3)
        batch = rollout_batch(env, pol, full_reward(env), noise_tapes(env, range(10)))
        valid = np.arange(env.spec.horizon) < batch.lengths[:, None]
        obs, actions = batch.obs[valid], batch.actions[valid]
        weights = np.random.default_rng(0).normal(size=len(obs))
        got = rl.episode_grad(pol, obs, actions, weights, batch.hidden[valid])
        assert same_bits(got, rl.episode_grad(pol, obs, actions, weights))


class TestKernel:
    @pytest.mark.parametrize("env_name", ["nav1-7", "nav2"])
    def test_every_engine_step_equals_the_single_state_step(self, env_name):
        """Each row's state, reward, base, membership and features after an
        engine step equal, bit for bit, `envs.step` on that row's state alone
        under that row's own spec."""
        env = ENVS[env_name]()
        specs = [make_spec(env, mode, alpha)
                 for alpha in (0.0, 0.37, 1.0) for mode in ("reward_weight", "barrier_set")]
        pol = make_policy(env, "mlp", 4, 0.5)
        batch = rollout_batch(env, pol, specs, noise_tapes(env, range(40, 40 + len(specs))))
        assert batch.member.any()
        for b, spec in enumerate(specs):
            for t in range(batch.lengths[b]):
                res = envs.step(env, batch.states[b, t], batch.actions[b, t], spec)
                assert same_bits(res.state, batch.states[b, t + 1])
                assert same_bits(res.reward, batch.rewards[b, t])
                assert same_bits(res.base, batch.base[b, t])
                assert res.collided == batch.member[b, t]
                assert res.terminal == (t + 1 == batch.lengths[b])
                assert same_bits(env.features(batch.states[b, t]), batch.obs[b, t])

    @pytest.mark.parametrize("env_name", ["nav1-7", "nav2"])
    def test_outcome_of_a_block_equals_each_rows_step_outcome(self, env_name):
        """`outcome` on a (3 steps, 6 rows) block under one spec per row
        equals, bit for bit, `outcome` of each row's step alone under its
        own spec: the per-row pick works with a leading time axis."""
        env = ENVS[env_name]()
        specs = [make_spec(env, mode, alpha)
                 for alpha in (0.0, 0.37, 1.0) for mode in ("reward_weight", "barrier_set")]
        # heading up at full speed, 0.2 a step: rows 0-2 cross nav2's barrier
        # tops (y = -1.5, 5.5), row 3 enters the goal band, rows 4-5 a barrier
        n_flags = len(env.barrier_tops)
        flags = np.zeros((6, n_flags))
        flags[2:4] = 1.0  # above the bottom barrier
        s = envs.CarColumns(
            np.array([[-4.0, 0.5, -2.0, 1.0, 3.0, -3.4], [-1.75, -1.62, 5.35, 7.75, 0.9, -1.1]]),
            np.full(6, math.pi / 2) + np.linspace(-0.2, 0.2, 6), env.v_set, np.zeros(6), 40.0, flags,
        )
        steps = [s]
        for action in np.random.default_rng(0).uniform(-1.0, 1.0, (3, 6, 1)):
            steps.append(env.move(steps[-1], action)[0])

        def block(cols):
            return envs.CarColumns(
                np.stack([c.xy for c in cols], axis=1), np.stack([c.heading for c in cols]),
                np.array([c.speed for c in cols])[:, None], np.stack([c.ang_vel for c in cols]),
                np.array([c.t for c in cols])[:, None], np.stack([c.flags for c in cols]),
            )

        prev, nxt = block(steps[:3]), block(steps[1:])
        got = env.outcome(prev, nxt, envs.RowRewards.of(env, specs))
        assert got[2].any() and got[3].any()  # a terminal and a penalized step
        if n_flags:
            assert (prev.flags != nxt.flags).any()

        def row(c, k, b):
            return envs.CarColumns(c.xy[:, k, b], c.heading[k, b], c.speed[k, 0], c.ang_vel[k, b],
                                   c.t[k, 0], c.flags[k, b])

        for k in range(3):
            for b, spec in enumerate(specs):
                want = env.outcome(row(prev, k, b), row(nxt, k, b), envs.RowRewards.of(env, spec))
                for g, w in zip(got, want):
                    assert same_bits(g[k, b], w), (k, b)

    def test_non_finite_row_raises(self):
        env = nav1_make(7, "left")
        pols = [make_policy(env, "mlp", seed, 0.5) for seed in range(6)]
        theta = np.stack([p.theta for p in pols])
        theta[3, 0] = np.nan
        stacked = PolicyParams(pols[0].arch, theta, pols[0].log_std)
        with pytest.raises(NonFiniteAction):
            rollout_batch(env, stacked, full_reward(env), noise_tapes(env, range(6)))


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
    region = spec.region
    charge = spec.weight * env.barrier.penalty
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


@pytest.mark.parametrize("env_name", sorted(ENVS))
def test_one_barrier_type(env_name):
    """Every barrier is a task-space RegionSet, and penalty membership is
    containment of the next state's task point."""
    env = ENVS[env_name]()
    assert isinstance(env.barrier, RegionSet)
    x0, y0, x1, y1 = env.barrier.bbox()
    xs = np.linspace(x0 - 0.5, x1 + 0.5, 23)
    ys = np.linspace(y0 - 0.5 * (y1 - y0), y1 + 0.5 * (y1 - y0), 23)
    pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    states = np.tile(env.initial_state(), (len(pts), 1))
    states[:, :2] = pts
    res = envs.step(env, states, np.zeros((len(pts), 1)), full_reward(env))
    member = res.collided
    task_points = np.stack(env.task_point(res.state), axis=-1)
    assert np.array_equal(member, contains(env.barrier, task_points))
    assert member.any() and not member.all()


@pytest.mark.parametrize("env_name", sorted(ENVS))
@pytest.mark.parametrize("kind", ["linear", "mlp"])
@pytest.mark.parametrize("mode", ["reward_weight", "barrier_set"])
def test_engine_matches_plain_loop(env_name, kind, mode):
    env = ENVS[env_name]()
    pol = make_policy(env, kind, 17, 0.3)
    spec = make_spec(env, mode, 0.37)
    seeds = [5, 6, 7, 8, 9]
    batch = rollout_batch(env, pol, spec, noise_tapes(env, seeds))
    for b, seed in enumerate(seeds):
        states, members, rewards = _car_loop(env, pol, spec, seed)
        traj = batch.trajectory(env, b)
        assert len(traj) == len(states)
        assert batch.member[b, : len(members)].tolist() == members
        assert batch.collided[b] == any(members)
        assert np.allclose(traj.states, states, rtol=0.0, atol=1e-12)
        assert np.allclose(batch.rewards[b, : len(rewards)], rewards, rtol=1e-12, atol=1e-9)


# --------------------------------------------------------------------------
# landscape scan


def _scan_reference(env, grid, samples, seed, log_std=0.0):
    """The scan cell by cell, one single-policy engine call per cell."""
    values = grid.values()
    n = len(values)
    arch = Arch("linear", 2, 1)
    out = {"barrier": np.zeros((n, n)), "free": np.zeros((n, n))}
    for i, th1 in enumerate(values):
        for j, th2 in enumerate(values):
            policy = PolicyParams(arch, np.array([th1, th2]), np.array([log_std]))
            seeds = [derive_seed(seed, "cell", i, j, "ep", e) for e in range(samples)]
            batch = rollout_batch(env, policy, full_reward(env), noise_tapes(env, seeds))
            lp = log_prob_batch(policy, batch.obs, batch.actions)
            for key, rewards in (("barrier", batch.rewards), ("free", batch.base)):
                g = reward_to_go(rewards, env.spec.discount)
                total = 0.0
                for e, t_len in enumerate(batch.lengths):
                    total += float(np.sum(g[e, :t_len] * lp[e, :t_len]))
                out[key][i, j] = total / samples
    return out


def test_landscape_scan_simulates_each_trajectory_once(monkeypatch):
    env = landscape_make(5, "left")
    grid = GridSpec(lo=-1.0, hi=1.1, bucket=0.7)  # 4 x 4 cells
    samples = 3
    cap = 5  # engine calls end inside cells
    calls = []
    inner = envs.rollout_batch

    def counting(env_, policy, spec, noise):
        batch = inner(env_, policy, spec, noise)
        calls.append((policy.theta, noise, batch))
        return batch

    monkeypatch.setattr(envs, "rollout_batch", counting)
    monkeypatch.setattr(rl, "LANDSCAPE_BATCH", cap)
    res = landscape_scan(env, grid, samples, seed=5, log_std=0.0)
    n = len(res.thetas)
    assert n == 4
    assert max(b.lengths.size for _, _, b in calls) <= cap
    # rows run in (i, j, sample) order: map each row back to its cell and tape
    thetas = np.concatenate([th for th, _, _ in calls])
    cells = np.stack(np.meshgrid(res.thetas, res.thetas, indexing="ij"), axis=-1)
    assert np.array_equal(thetas.reshape(n, n, samples, 2), np.repeat(cells[:, :, None], samples, 2))
    tapes = np.concatenate([noise for _, noise, _ in calls])
    seeds = [derive_seed(5, "cell", i, j, "ep", e)
             for i in range(n) for j in range(n) for e in range(samples)]
    assert np.array_equal(tapes, noise_tapes(env, seeds))
    collided = np.concatenate([b.collided for _, _, b in calls]).reshape(n, n, samples)
    entered = collided.any(axis=2)
    assert entered.any() and not entered.all()
    assert np.array_equal(res.loss_barrier[~entered], res.loss_free[~entered])
    assert np.all(res.loss_barrier[entered] != res.loss_free[entered])


@pytest.mark.parametrize("cap", [None, 5], ids=["default-cap", "cap-5"])
def test_landscape_scan_equals_per_cell_reference(monkeypatch, cap):
    env = landscape_make(5, "left")
    grid = GridSpec(lo=-1.0, hi=1.1, bucket=0.21)  # 11 x 11 cells
    samples = 3
    if cap is not None:
        monkeypatch.setattr(rl, "LANDSCAPE_BATCH", cap)
    batch_size = rl.LANDSCAPE_BATCH
    n = len(grid.values())
    # at least one engine call ends inside a cell
    assert n * n * samples > batch_size and batch_size % samples != 0
    calls = []
    monkeypatch.setattr(envs, "rollout_batch", lambda *args: calls.append(rollout_batch(*args))
                        or calls[-1])
    res = landscape_scan(env, grid, samples, seed=3, log_std=-0.4)
    monkeypatch.undo()
    # some call holds episodes of different lengths, and some adjacent
    # episodes share a length, so they are scored together
    assert any(len(set(b.lengths.tolist())) > 1 for b in calls)
    assert any((b.lengths[1:] == b.lengths[:-1]).any() for b in calls)
    ref = _scan_reference(env, grid, samples, seed=3, log_std=-0.4)
    assert np.array_equal(res.loss_barrier, ref["barrier"])
    assert np.array_equal(res.loss_free, ref["free"])


@pytest.mark.parametrize("cap", [None, 5], ids=["default-cap", "cap-5"])
def test_landscape_scan_holds_one_engine_call_at_a_time(monkeypatch, cap):
    """Each engine call's batch is freed before the next call starts, so the
    scan's peak memory is one call's arrays."""
    env = landscape_make(5, "left")
    grid = GridSpec(lo=-1.0, hi=1.1, bucket=0.21 if cap is None else 0.7)
    samples = 3
    if cap is not None:
        monkeypatch.setattr(rl, "LANDSCAPE_BATCH", cap)
    episodes = len(grid.values()) ** 2 * samples
    batches = []
    inner = envs.rollout_batch

    def tracking(*args):
        alive = [k for k, ref in enumerate(batches) if ref() is not None]
        assert alive == [], f"batches of calls {alive} are alive when call {len(batches)} starts"
        batch = inner(*args)
        batches.append(weakref.ref(batch))
        return batch

    monkeypatch.setattr(envs, "rollout_batch", tracking)
    landscape_scan(env, grid, samples, seed=5, log_std=0.0)
    assert len(batches) == -(-episodes // rl.LANDSCAPE_BATCH) > 1


# --------------------------------------------------------------------------
# noise tapes

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**62, 2**63 - 1]
RANDOM_SEEDS = np.random.default_rng(2024).integers(0, 2**63, 2000, dtype=np.int64).tolist()


@pytest.mark.parametrize("env_name, horizon", [("landscape", 100), ("nav1-7", 128)])
def test_noise_tapes_are_the_reference_streams(env_name, horizon):
    """Tape b is rng_for(seeds[b], "noise").standard_normal(...) bit for
    bit, however the call seeds its streams."""
    env = ENVS[env_name]()
    shape = (env.spec.horizon, env.spec.action_dim)
    assert env.spec.horizon == horizon

    def reference(seeds):
        return np.stack([rng_for(s, "noise").standard_normal(shape) for s in seeds])

    for seeds in (EDGE_SEEDS + RANDOM_SEEDS, range(40, 57)):
        tapes = noise_tapes(env, seeds)
        want = reference(seeds)
        assert tapes.dtype == want.dtype and tapes.shape == want.shape
        assert tapes.tobytes() == want.tobytes()
    assert noise_tapes(env, []).shape == (0,) + shape


def test_noise_tapes_from_threads_are_the_reference_streams():
    """Threads share the one tape generator; each call's tapes stay its own."""
    env = ENVS["landscape"]()
    shape = (env.spec.horizon, env.spec.action_dim)
    jobs = [range(100 * k, 100 * k + 16) for k in range(6)]
    want = [np.stack([rng_for(s, "noise").standard_normal(shape) for s in seeds]).tobytes()
            for seeds in jobs]
    bad = []

    def work(k):
        for _ in range(200):
            if noise_tapes(env, jobs[k]).tobytes() != want[k]:
                bad.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(jobs))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert bad == []


def test_pcg64_states_are_numpys_seeding():
    seeds = EDGE_SEEDS + [2**64 - 1] + RANDOM_SEEDS
    want = [np.random.PCG64(s).state["state"] for s in seeds]
    assert pcg64_states(seeds) == [(w["state"], w["inc"]) for w in want]
    assert pcg64_states(range(3)) == pcg64_states([0, 1, 2])
    assert pcg64_states([]) == []
