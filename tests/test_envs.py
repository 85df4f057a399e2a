import hashlib
import math
from dataclasses import fields

import numpy as np
import pytest

from easerl import envs
from easerl.envs import (
    MdpSpec,
    RewardSpec,
    RolloutBatch,
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
    step,
)
from easerl.errors import NonFiniteAction, UnsupportedSize
from easerl.geometry import ConvexPolygon, RegionSet, bisect, contains
from easerl.homotopy import ClassSignature
from easerl.rl import Arch, PolicyParams, init_policy, load_checkpoint


def test_clock_is_stepped_once_per_task_and_read_only():
    env = nav1_make(7, "left")
    speed, t = env.clock()
    again = env.clock()
    assert again[0] is speed and again[1] is t
    assert nav1_make(7, "left").clock()[0] is speed  # an equal task shares it
    assert speed.shape == t.shape == (env.spec.horizon + 1,)
    for arr in (speed, t):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def probe_states(env, n_side=20):
    """Grid of car states spread over the field, heading up, mid-episode."""
    out = []
    for x in np.linspace(-9.5, 9.5, n_side):
        for y in np.linspace(-9.5, 9.5, n_side):
            s = env.initial_state()
            s[0], s[1] = x, y
            s[3] = env.v_set
            s[5] = 10.0
            out.append(s)
    return out


def seeded_policy(env, seed=3, scale=0.1):
    arch = Arch("linear", env.spec.state_dim, env.spec.action_dim)
    pol = init_policy(arch, seed)
    pol.theta = np.random.default_rng(seed).normal(scale=scale, size=pol.theta.shape)
    return pol


class TestRewardInterpolation:
    def test_affine_in_alpha_with_slope_minus_m(self):
        env = nav1_make(5, "left")
        action = np.zeros(1)
        alphas = [0.0, 0.25, 0.5, 0.75, 1.0]
        hit_barrier = 0
        for s in probe_states(env):
            rewards = [
                step(env, s, action, RewardSpec(env.barrier, a)).reward
                for a in alphas
            ]
            nxt = step(env, s, action, relaxed_reward(env)).state
            if contains(env.barrier, nxt[:2]):
                hit_barrier += 1
                base = rewards[0]
                for a, r in zip(alphas, rewards):
                    assert r == pytest.approx(base - a * env.barrier.penalty, abs=1e-12)
            else:
                assert all(r == rewards[0] for r in rewards)
        assert hit_barrier > 5  # the probe grid actually exercised the barrier

    def test_alpha_endpoints_equal_relaxed_and_target(self):
        env = nav1_make(7, "right")
        action = np.array([0.3])
        for s in probe_states(env, n_side=12):
            r0 = step(env, s, action, relaxed_reward(env)).reward
            r1 = step(env, s, action, full_reward(env)).reward
            relaxed = step(env, s, action, relaxed_reward(env))
            base = relaxed.base
            member = contains(env.barrier, relaxed.state[:2])
            assert r0 == pytest.approx(base)
            assert r1 == pytest.approx(base - (env.barrier.penalty if member else 0.0))


class TestBarrierSetMonotonicity:
    def test_nested_subsets_reward_ordering(self):
        env = nav1_make(7, "left")
        inner = RegionSet(
            (ConvexPolygon.rectangle(0.0, 0.0, 3.0, 2.0),), env.barrier.penalty
        )
        mid = RegionSet(
            (ConvexPolygon.rectangle(0.0, 0.0, 5.0, 2.0),), env.barrier.penalty
        )
        chain = [inner, mid, env.barrier]
        action = np.zeros(1)
        for s in probe_states(env):
            rewards = [
                step(env, s, action, RewardSpec(sub, 1.0)).reward
                for sub in chain
            ]
            assert rewards[0] >= rewards[1] >= rewards[2]

    def test_empty_set_equals_relaxed(self):
        env = nav1_make(5, "left")
        empty = RegionSet((), env.barrier.penalty)
        action = np.array([-0.5])
        for s in probe_states(env, n_side=10):
            r_empty = step(env, s, action, RewardSpec(empty, 1.0)).reward
            r_relax = step(env, s, action, relaxed_reward(env)).reward
            assert r_empty == pytest.approx(r_relax)


class TestTransitionInvariance:
    def test_trajectories_bitwise_identical_across_stages(self):
        env = nav1_make(5, "left")
        pol = seeded_policy(env)
        half = RegionSet(
            (ConvexPolygon.rectangle(0.0, 0.0, 2.5, 2.0),), env.barrier.penalty
        )
        specs = [
            relaxed_reward(env),
            RewardSpec(env.barrier, 0.37),
            full_reward(env),
            RewardSpec(half, 1.0),
            RewardSpec(env.barrier, 1.0),
        ]
        recs = [rollout_record(env, pol, spec, seed=11) for spec in specs]
        ref = recs[0]
        for rec in recs[1:]:
            assert np.array_equal(rec.trajectory.states, ref.trajectory.states)
            assert np.array_equal(rec.actions, ref.actions)
        # with any penalty active some returns must differ from the relaxed one
        assert any(rec.ret != ref.ret for rec in recs[1:]) or not ref.collided


class TestDeterminism:
    def test_same_seed_same_rollout(self):
        env = nav2_make("LR")
        pol = seeded_policy(env, seed=7)
        a = rollout_record(env, pol, full_reward(env), seed=21)
        b = rollout_record(env, pol, full_reward(env), seed=21)
        c = rollout_record(env, pol, full_reward(env), seed=22)
        assert np.array_equal(a.trajectory.raw_states, b.trajectory.raw_states)
        assert (a.ret, a.collided) == (b.ret, b.collided)
        assert not np.array_equal(a.trajectory.raw_states, c.trajectory.raw_states)


class TestScriptedPathOracle:
    def test_straight_through_return_matches_hand_computation(self):
        """Drive straight at the goal with zero steering and recompute the
        return from the documented reward terms, counting collision steps
        with the geometry module directly."""
        env = nav1_make(5, "left")
        spec = full_reward(env)
        state = env.initial_state()
        total = 0.0
        gamma_t = 1.0
        expected = 0.0
        n_collisions = 0
        for _ in range(env.spec.horizon):
            res = step(env, state, np.zeros(1), spec)
            total += gamma_t * res.reward

            nxt = res.state
            t_norm = state[5] / env.spec.horizon
            shaping = 0.0
            # heading stays pi/2 exactly, so the side term is sin(0) = 0
            shaping += env.c_side * (1.0 - t_norm) * math.sin(nxt[2] - math.pi / 2.0)
            dist = max(0.0, env.goal_poly.bbox()[1] - nxt[1])
            shaping += -env.c_goal * t_norm * dist / 16.0
            if env.goal_poly.contains_point(nxt[0], nxt[1]):
                shaping += env.goal_bonus
            hit = env.barrier.parts[0].contains_point(nxt[0], nxt[1])
            n_collisions += int(hit)
            expected += gamma_t * (shaping - (1000.0 if hit else 0.0))

            gamma_t *= env.spec.discount
            state = res.state
            if res.terminal:
                break
        assert n_collisions > 0  # the straight path really does cross the barrier
        assert total == pytest.approx(expected, rel=1e-12)
        assert total < -500  # collision penalties dominate the shaping


class TestNav1:
    def test_unsupported_size(self):
        with pytest.raises(UnsupportedSize):
            nav1_make(2, "left")

    def test_nonfinite_action(self):
        env = nav1_make(1, "left")
        with pytest.raises(NonFiniteAction):
            step(env, env.initial_state(), np.array([np.inf]), full_reward(env))

    def test_goal_reach_terminates_early(self):
        env = nav1_make(1, "left")
        state = env.initial_state()
        steps = 0
        spec = relaxed_reward(env)
        while steps < env.spec.horizon:
            res = step(env, state, np.zeros(1), spec)
            state = res.state
            steps += 1
            if res.terminal:
                break
        assert env.goal_poly.contains_point(*state[:2])
        assert steps < env.spec.horizon

    def test_feature_vector_shape_and_scaling(self):
        env = nav1_make(5, "left")
        s = env.initial_state()
        f = env.features(s)
        assert f.shape == (7,)
        assert f[0] == pytest.approx(0.0)
        assert f[1] == pytest.approx(-0.8)  # y = -8 over half-field 10
        assert f[2] == pytest.approx(math.cos(math.pi / 2))
        assert f[3] == pytest.approx(1.0)

    def test_side_term_sign_flips_with_target(self):
        left = nav1_make(5, "left")
        right = nav1_make(5, "right")
        s = left.initial_state()
        a = np.array([1.0])  # steer left
        r_left = step(left, s, a, relaxed_reward(left)).base
        r_right = step(right, s, a, relaxed_reward(right)).base
        assert r_left > 0 > r_right

    def test_speed_controller_approaches_setpoint(self):
        env = nav1_make(1, "left")
        s = env.initial_state()
        assert s[3] == 0.0
        for _ in range(40):
            s = step(env, s, np.zeros(1), relaxed_reward(env)).state
        assert s[3] == pytest.approx(env.v_set, abs=1e-3)

    def test_class_labels(self):
        env = nav1_make(5, "left")
        assert ClassSignature(env.target_bits).label() == "L"
        assert ClassSignature((0,)).label() == "R"
        right = nav1_make(5, "right")
        assert ClassSignature(right.target_bits).label() == "R"
        assert ClassSignature(nav2_make("LR").target_bits).label() == "LR"


class TestNav2:
    def test_side_bonus_latches_once_per_barrier(self):
        env = nav2_make("LL")
        state = env.initial_state()
        state[0] = -6.0  # lane left of both barriers (they span x in [-4.5, 4.5])
        spec = relaxed_reward(env)
        bonuses = 0.0
        for _ in range(env.spec.horizon):
            prev = state.copy()
            res = step(env, state, np.zeros(1), spec)
            nxt = res.state
            for i, _top in enumerate(env.barrier_tops):
                if prev[6 + i] == 0.0 and nxt[6 + i] == 1.0:
                    bonuses += 500.0
            state = nxt
            if res.terminal:
                break
        assert bonuses == 1000.0
        assert state[6] == 1.0 and state[7] == 1.0

    def test_wrong_side_passage_earns_no_bonus(self):
        env_ll = nav2_make("LL")
        env_rr = nav2_make("RR")
        for env in (env_ll, env_rr):
            state = env.initial_state()
            state[0] = -6.0
            total = 0.0
            spec = relaxed_reward(env)
            for _ in range(env.spec.horizon):
                res = step(env, state, np.zeros(1), spec)
                total += res.reward
                state = res.state
                if res.terminal:
                    break
        # both runs share dynamics; only the LL run collects side bonuses
        ll_state = env_ll.initial_state()
        ll_state[0] = -6.0
        rr_state = env_rr.initial_state()
        rr_state[0] = -6.0
        ll_total = rr_total = 0.0
        for _ in range(env_ll.spec.horizon):
            res_ll = step(env_ll, ll_state, np.zeros(1), relaxed_reward(env_ll))
            res_rr = step(env_rr, rr_state, np.zeros(1), relaxed_reward(env_rr))
            ll_total += res_ll.reward
            rr_total += res_rr.reward
            ll_state, rr_state = res_ll.state, res_rr.state
            if res_ll.terminal:
                break
        assert ll_total - rr_total == pytest.approx(1000.0)

    def test_correct_class_clears_documented_threshold(self):
        env = nav2_make("LL")
        state = env.initial_state()
        state[0] = -6.0
        total = 0.0
        for _ in range(env.spec.horizon):
            res = step(env, state, np.zeros(1), full_reward(env))
            total += res.reward
            state = res.state
            if res.terminal:
                break
        assert env.goal_poly.contains_point(*state[:2])
        assert total > 3000.0

    def test_wrong_class_stays_below_threshold(self):
        env = nav2_make("RR")
        state = env.initial_state()
        state[0] = -6.0  # passes left of both barriers: wrong class for RR
        total = 0.0
        for _ in range(env.spec.horizon):
            res = step(env, state, np.zeros(1), full_reward(env))
            total += res.reward
            state = res.state
            if res.terminal:
                break
        assert total < 3000.0

    def test_undiscounted(self):
        assert nav2_make("LR").spec.discount == 1.0

    def test_feature_count_includes_flags(self):
        env = nav2_make("LR")
        assert env.spec.state_dim == 9
        assert env.features(env.initial_state()).shape == (9,)

    def test_bad_class_string(self):
        with pytest.raises(ValueError):
            nav2_make("LX")
        with pytest.raises(ValueError):
            nav2_make("L")


class TestLandscapeEnv:
    def test_position_only_observations(self):
        env = landscape_make(5, "left")
        f = env.features(env.initial_state())
        assert f.shape == (2,)
        assert f[1] == pytest.approx(-0.8)

    def test_shares_nav1_geometry(self):
        env = landscape_make(5, "left")
        ref = nav1_make(5, "left")
        assert env.barrier.parts[0].bbox() == ref.barrier.parts[0].bbox()


class TestSpecs:
    def test_reward_spec_validation(self):
        barrier = nav1_make(5, "left").barrier
        for weight in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError):
                RewardSpec(barrier, weight)

    def test_mdp_spec_validation(self):
        with pytest.raises(ValueError):
            MdpSpec(2, 1, 10, 0.0)
        with pytest.raises(ValueError):
            MdpSpec(2, 1, 0, 0.9)

    def test_penalty_region_selects_active_subset(self):
        env = nav1_make(5, "left")
        sub = RegionSet(
            (ConvexPolygon.rectangle(0.0, 0.0, 1.0, 2.0),), env.barrier.penalty
        )
        assert full_reward(env) == RewardSpec(env.barrier, 1.0)
        assert relaxed_reward(env) == RewardSpec(env.barrier, 0.0)
        # states whose next task point is in the barrier but not in the subset
        # are charged under the full reward only
        states = np.array(probe_states(env, n_side=40))
        action = np.zeros((len(states), 1))
        full = step(env, states, action, full_reward(env))
        part = step(env, states, action, RewardSpec(sub, 1.0))
        nxt = full.state[:, :2]
        assert np.array_equal(part.collided, contains(sub, nxt))
        assert np.array_equal(full.collided, contains(env.barrier, nxt))
        assert (full.collided & ~part.collided).any()
        assert np.array_equal(part.reward, full.base - np.where(part.collided, env.barrier.penalty, 0.0))


class TestLeadingAxes:
    @pytest.mark.parametrize("make", [lambda: nav1_make(5, "left"), lambda: nav2_make("LR"),
                                      lambda: landscape_make(5, "left")],
                             ids=["nav1", "nav2", "landscape"])
    def test_a_3x3_batch_steps_as_its_9_rows(self, make):
        """`step` and `features` on a (3, 3, D) batch give the results of
        the same states as a (9, D) batch, reshaped."""
        env = make()
        rng = np.random.default_rng(0)
        states = np.array(probe_states(env, 3))
        states[:, 2] = rng.uniform(0.0, 2.0 * math.pi, 9)
        actions = rng.uniform(-1.0, 1.0, (9, 1))
        flat = step(env, states, actions, full_reward(env))
        grid = step(env, states.reshape(3, 3, -1), actions.reshape(3, 3, 1), full_reward(env))
        for name in ("state", "reward", "terminal", "collided", "base"):
            got, want = getattr(grid, name), getattr(flat, name)
            assert np.array_equal(got, np.reshape(want, got.shape)), name
        features = env.features(states.reshape(3, 3, -1))
        assert np.array_equal(features.reshape(9, -1), env.features(states))


class TestMeanRollout:
    def test_zero_policy_goes_straight(self):
        env = nav1_make(5, "left")
        pol = init_policy(Arch("linear", 7, 1), 0)  # zero weights: mean action 0
        traj = mean_rollout(env, pol)
        xs = traj.states[:, 0]
        assert np.max(np.abs(xs)) < 1e-9
        assert env.goal_poly.contains_point(*traj.raw_states[-1][:2])


PINNED_TASKS = {
    **{f"nav1-{n}-{side}": (lambda n=n, side=side: nav1_make(n, side))
       for n in (1, 3, 5, 7) for side in ("left", "right")},
    "nav2-LL": lambda: nav2_make("LL"),
    "nav2-RR": lambda: nav2_make("RR"),
    "landscape-5": lambda: landscape_make(5, "left"),
}


def _pinned_batch(env, reward):
    """One batch of 16 noisy MLP rollouts under reward(env)."""
    pol = init_policy(Arch("mlp", env.spec.state_dim, env.spec.action_dim), 3)
    pol = PolicyParams(pol.arch, pol.theta, np.zeros(env.spec.action_dim))
    return rollout_batch(env, pol, reward(env), noise_tapes(env, range(16)))


PINNED_DIGEST = "2a7d960423b98471751b5a44a64545f8d2ae0d9d68f5008f2dbd01231ad41cf1"


def test_task_rollouts_are_pinned():
    """Every task's kinematics, shaping, goal, start and barrier, pinned to
    the bit: one batch of 16 noisy MLP rollouts per task under the full
    reward, hashed over returns, states, rewards, base rewards and lengths."""
    h = hashlib.sha256()
    for name, make in PINNED_TASKS.items():
        batch = _pinned_batch(make(), full_reward)
        h.update(name.encode())
        for arr in (batch.returns, batch.states, batch.rewards, batch.base):
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        h.update(np.asarray(batch.lengths, dtype=np.int64).tobytes())
    assert h.hexdigest() == PINNED_DIGEST


def _ramp_batch(env):
    """A barrier ramp's four stages, one spec per row, under the trained
    nav1-7 source, whose episodes all end before the horizon."""
    pol, _ = load_checkpoint("assets/source-nav1-7.json")
    specs = [RewardSpec(nav1_barrier(w), 1.0) for w in (1, 3, 5, 7) for _ in range(4)]
    batch = rollout_batch(env, pol, specs, noise_tapes(env, range(16)))
    assert batch.lengths.max() < env.spec.horizon  # so the loop stops early
    return batch


EARLY_EXIT_CASES = {
    **{name: (make, lambda env: _pinned_batch(env, full_reward))
       for name, make in PINNED_TASKS.items()},
    "nav1-7-barrier-ramp": (lambda: nav1_make(7, "left"), _ramp_batch),
}


class TestEarlyExit:
    """The lockstep loop tests the goal only to stop stepping early."""

    @pytest.mark.parametrize("name", list(EARLY_EXIT_CASES))
    def test_where_the_goal_test_starts_changes_no_bit(self, name, monkeypatch):
        make, run = EARLY_EXIT_CASES[name]
        env = make()
        want = run(env)
        for first in (0, env.spec.horizon):
            monkeypatch.setattr(envs, "_first_goal_step", lambda env_, speeds, first=first: first)
            got = run(env)
            for f in fields(RolloutBatch):
                g, w = getattr(got, f.name), getattr(want, f.name)
                assert g.dtype == w.dtype and g.shape == w.shape, (first, f.name)
                assert g.tobytes() == w.tobytes(), (first, f.name)

    @pytest.mark.parametrize("name", list(PINNED_TASKS))
    def test_the_bound_is_at_most_one_step_before_a_straight_drive_arrives(self, name):
        env = PINNED_TASKS[name]()
        pol = init_policy(Arch("linear", env.spec.state_dim, env.spec.action_dim), 0)  # mean action 0
        straight = rollout_batch(env, pol, full_reward(env), np.zeros((1, env.spec.horizon, 1)))
        arrival = straight.lengths[0] - 1  # the step after which it is in the goal
        assert env.goal_poly.contains_point(*straight.xy[0, arrival + 1])
        bound = envs._first_goal_step(env, env.clock()[0])
        assert arrival - 1 <= bound <= arrival
