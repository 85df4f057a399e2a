import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from easerl import envs
from easerl.envs import full_reward, nav1_make, nav2_make, relaxed_reward, serve
from easerl.errors import EaseRlError, NonFiniteState
from easerl.rl import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    Arch,
    ConvergenceBand,
    GridSpec,
    PolicyParams,
    TrainConfig,
    act,
    episode_grad,
    evaluate_detail,
    hump_height,
    init_policy,
    landscape_scan,
    load_checkpoint,
    log_prob_batch,
    mean_batch,
    reward_to_go,
    save_checkpoint,
    segment_profile,
    train,
    training,
)
from easerl.seeding import derive_seed


def random_policy(rng, kind, obs_dim=4, action_dim=2, hidden=8):
    arch = Arch(kind, obs_dim, action_dim, hidden)
    pol = init_policy(arch, int(rng.integers(1 << 30)))
    pol.theta = rng.normal(scale=0.5, size=pol.theta.shape)
    pol.log_std = rng.uniform(-1.5, 0.0, size=action_dim)
    return pol


def weighted_logprob(policy, obs, actions, weights) -> float:
    return float(np.sum(weights * log_prob_batch(policy, obs, actions)))


def numeric_grad(policy, obs, actions, weights, h=1e-5) -> np.ndarray:
    flat = policy.flat()
    out = np.zeros_like(flat)
    n_theta = policy.theta.size
    for i in range(flat.size):
        for sign in (+1, -1):
            p = policy.copy()
            bumped = flat.copy()
            bumped[i] += sign * h
            p.theta = bumped[:n_theta]
            p.log_std = bumped[n_theta:]
            out[i] += sign * weighted_logprob(p, obs, actions, weights)
    return out / (2 * h)


class TestGradients:
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_episode_grad_matches_finite_differences(self, kind):
        rng = np.random.default_rng(42)
        for trial in range(5):
            pol = random_policy(rng, kind)
            T = int(rng.integers(2, 9))
            obs = rng.normal(size=(T, 4))
            means = mean_batch(pol, obs)
            actions = means + rng.normal(size=(T, 2)) * np.exp(pol.log_std)
            weights = rng.normal(size=T)
            got = episode_grad(pol, obs, actions, weights)
            want = numeric_grad(pol, obs, actions, weights)
            assert np.allclose(got, want, rtol=1e-4, atol=1e-6), (
                f"{kind} trial {trial}: max err {np.max(np.abs(got - want))}"
            )

    def test_grad_log_prob_single_step(self):
        rng = np.random.default_rng(1)
        pol = random_policy(rng, "linear")
        obs = rng.normal(size=4)
        action = rng.normal(size=2)
        got = episode_grad(pol, obs[None], action[None], np.ones(1))
        want = numeric_grad(pol, obs[None, :], action[None, :], np.ones(1))
        assert np.allclose(got, want, rtol=1e-4, atol=1e-6)

    def test_vectorized_equals_looped(self):
        rng = np.random.default_rng(7)
        for kind in ("linear", "mlp"):
            pol = random_policy(rng, kind)
            T = 6
            obs = rng.normal(size=(T, 4))
            actions = rng.normal(size=(T, 2))
            weights = rng.normal(size=T)
            whole = episode_grad(pol, obs, actions, weights)
            looped = sum(
                episode_grad(pol, obs[t : t + 1], actions[t : t + 1], weights[t : t + 1])
                for t in range(T)
            )
            assert np.allclose(whole, looped, rtol=1e-9, atol=1e-12)

    def test_log_prob_matches_gaussian_formula(self):
        rng = np.random.default_rng(3)
        pol = random_policy(rng, "linear")
        obs = rng.normal(size=(5, 4))
        actions = rng.normal(size=(5, 2))
        got = log_prob_batch(pol, obs, actions)
        means = mean_batch(pol, obs)
        sig = np.exp(pol.log_std)
        want = np.sum(
            -0.5 * ((actions - means) / sig) ** 2
            - pol.log_std
            - 0.5 * math.log(2 * math.pi),
            axis=1,
        )
        assert np.allclose(got, want, rtol=1e-12)


class TestRewardToGo:
    def test_hand_example(self):
        g = reward_to_go(np.array([1.0, 2.0, 3.0]), 0.5)
        assert np.allclose(g, [1 + 0.5 * (2 + 0.5 * 3), 2 + 0.5 * 3, 3.0])

    def test_undiscounted_is_suffix_sum(self):
        r = np.array([1.0, -2.0, 4.0, 0.5])
        g = reward_to_go(r, 1.0)
        assert np.allclose(g, [3.5, 2.5, 4.5, 0.5])


class TestActAndInit:
    def test_act_is_mean_plus_scaled_noise(self):
        rng = np.random.default_rng(5)
        pol = random_policy(rng, "mlp")
        state = rng.normal(size=4)
        noise = rng.normal(size=2)
        action = act(pol, state, noise)
        mean = mean_batch(pol, state[None, :])[0]
        assert np.allclose(action, mean + np.exp(pol.log_std) * noise)
        # the log-density of that action is the Gaussian's at the scaled noise
        lp = float(log_prob_batch(pol, state[None, :], action[None, :])[0])
        expected = -pol.log_std.sum() - 0.5 * float(noise @ noise) - math.log(2 * math.pi)
        assert lp == pytest.approx(expected)

    def test_act_rejects_nonfinite_state(self):
        rng = np.random.default_rng(5)
        pol = random_policy(rng, "linear")
        with pytest.raises(NonFiniteState):
            act(pol, np.array([np.nan, 0, 0, 0]), np.zeros(2))

    def test_init_deterministic_per_seed(self):
        arch = Arch("mlp", 4, 2, 8)
        a = init_policy(arch, 11)
        b = init_policy(arch, 11)
        c = init_policy(arch, 12)
        assert np.array_equal(a.theta, b.theta)
        assert not np.array_equal(a.theta, c.theta)

    def test_linear_init_is_zero(self):
        pol = init_policy(Arch("linear", 3, 1), 0)
        assert np.all(pol.theta == 0.0)

    def test_theta_size(self):
        assert Arch("linear", 3, 2).theta_size() == 6
        # mlp: 4*8 + 8 + 8*2 + 2
        assert Arch("mlp", 4, 2, 8).theta_size() == 32 + 8 + 16 + 2


class TestTrain:
    def test_respects_budget_and_counts_steps(self):
        env = nav1_make(1, "right")
        arch = Arch("linear", env.spec.state_dim, env.spec.action_dim)
        pol = init_policy(arch, 0)
        cfg = TrainConfig(seed=1, max_interaction_steps=6000,
                          convergence=ConvergenceBand(1e9, 1.0, 3),
                          eval_every=2000, batch_episodes=2)
        rep = train(env, full_reward(env), pol, cfg)
        assert rep.interaction_steps <= 6000
        assert not rep.converged
        assert all(s2 > s1 for (s1, _), (s2, _) in zip(rep.return_curve, rep.return_curve[1:]))

    def test_converges_immediately_with_wide_band(self):
        env = nav1_make(1, "right")
        arch = Arch("linear", env.spec.state_dim, env.spec.action_dim)
        pol = init_policy(arch, 0)
        cfg = TrainConfig(seed=1, max_interaction_steps=50000,
                          convergence=ConvergenceBand(0.0, 1e9, 2),
                          eval_every=1500, batch_episodes=2)
        rep = train(env, full_reward(env), pol, cfg)
        assert rep.converged
        assert len(rep.return_curve) == 2
        assert rep.interaction_steps < 50000

    def test_deterministic_given_seed(self):
        env = nav1_make(1, "right")
        arch = Arch("linear", env.spec.state_dim, env.spec.action_dim)
        cfg = TrainConfig(seed=9, max_interaction_steps=5000,
                          convergence=ConvergenceBand(1e9, 1.0, 3), batch_episodes=2)
        r1 = train(env, full_reward(env), init_policy(arch, 3), cfg)
        r2 = train(env, full_reward(env), init_policy(arch, 3), cfg)
        assert np.array_equal(r1.params.theta, r2.params.theta)
        assert r1.return_curve == r2.return_curve

    def test_l2sp_pulls_toward_reference(self):
        env = nav1_make(1, "right")
        arch = Arch("linear", env.spec.state_dim, env.spec.action_dim)
        ref = init_policy(arch, 3)
        ref.theta = ref.theta + 0.5
        cfg = TrainConfig(seed=9, max_interaction_steps=20000,
                          convergence=ConvergenceBand(1e9, 1.0, 3), batch_episodes=2)
        free = train(env, full_reward(env), ref.copy(), cfg)
        tied = train(env, full_reward(env), ref.copy(), cfg, l2sp=(100.0, ref.flat()))
        drift_free = float(np.linalg.norm(free.params.flat() - ref.flat()))
        drift_tied = float(np.linalg.norm(tied.params.flat() - ref.flat()))
        assert drift_tied < drift_free

    def test_eval_steps_not_charged(self):
        env = nav1_make(1, "right")
        arch = Arch("linear", env.spec.state_dim, env.spec.action_dim)
        pol = init_policy(arch, 0)
        cfg = TrainConfig(seed=1, max_interaction_steps=4000,
                          convergence=ConvergenceBand(1e9, 1.0, 3),
                          eval_every=1000, eval_episodes=64, batch_episodes=1)
        rep = train(env, full_reward(env), pol, cfg)
        # 64-episode evals would dwarf the budget if charged
        assert rep.interaction_steps <= 4000


def report_bytes(rep) -> bytes:
    """The bits of a TrainReport: parameters, curve, steps and verdict."""
    curve = np.array(rep.return_curve, dtype=np.float64)
    return b"".join([
        np.ascontiguousarray(rep.params.theta, dtype=np.float64).tobytes(),
        np.ascontiguousarray(rep.params.log_std, dtype=np.float64).tobytes(),
        curve.tobytes(),
        np.array([rep.interaction_steps, int(rep.converged)], dtype=np.int64).tobytes(),
    ])


def pinned_runs():
    """(env, reward spec, init, config) of the two pinned training runs."""
    src1, _ = load_checkpoint("assets/source-nav1-7.json")
    src2, _ = load_checkpoint("assets/source-nav2-LL.json")
    env1, env2 = nav1_make(7, "left"), nav2_make("RR")
    # reaches the band mid-run with budget to spare, so the batch that the
    # converging evaluation shares is dropped
    cfg1 = TrainConfig(seed=3, max_interaction_steps=40000,
                       convergence=ConvergenceBand(8.5, 0.75, 3), eval_every=2048)
    # never converges and runs out of budget, so the last evaluation runs alone
    cfg2 = TrainConfig(seed=5, max_interaction_steps=12000,
                       convergence=ConvergenceBand(3200.0, 600.0, 5), eval_every=2500,
                       keep_best=True)
    return [(env1, relaxed_reward(env1), src1, cfg1), (env2, full_reward(env2), src2, cfg2)]


PINNED_TRAINING_DIGEST = "7afac1b37aff3fe05f152ec91d3c007afa44ed6ea4d3956b3882a01be22d1010"


class TestTrainingBits:
    def test_train_reports_are_pinned(self):
        """Two short training runs, pinned to the bit: nav1-7 under the
        relaxed reward, converging mid-run, and nav2 under the full reward
        with keep_best, ending on its budget.  Each run gives the same bits
        alone and served in lockstep beside a run of another seed."""
        runs = pinned_runs()
        alone = [train(env, spec, init, cfg) for env, spec, init, cfg in runs]
        assert alone[0].converged and alone[0].interaction_steps < runs[0][3].max_interaction_steps
        assert not alone[1].converged
        lockstep = [
            serve(env, [training(env, spec, init, cfg),
                        training(env, spec, init, replace(cfg, seed=cfg.seed + 1))])[0]
            for env, spec, init, cfg in runs
        ]
        for reports in (alone, lockstep):
            digest = hashlib.sha256(b"".join(report_bytes(r) for r in reports)).hexdigest()
            assert digest == PINNED_TRAINING_DIGEST

    def test_an_evaluation_shares_the_next_batch_call(self, monkeypatch):
        """U updates, an evaluation due after each and the run ending on its
        budget: U + 1 engine calls, each evaluation but the last sharing the
        call of the batch after it."""
        env = nav1_make(7, "left")
        arch = Arch("mlp", env.spec.state_dim, env.spec.action_dim, hidden=4)
        pol = init_policy(arch, 0)
        pol.theta[-1] = 5.0  # a full turn every step: no episode reaches the goal
        horizon, batch, updates = env.spec.horizon, 3, 4
        cfg = TrainConfig(seed=2, max_interaction_steps=updates * batch * horizon,
                          convergence=ConvergenceBand(1e9, 1.0, 1), eval_every=1,
                          eval_episodes=2, batch_episodes=batch)
        calls = []
        inner = envs.rollout_batch

        def counting(env_, policy, spec, noise):
            calls.append(len(noise))
            return inner(env_, policy, spec, noise)

        monkeypatch.setattr(envs, "rollout_batch", counting)
        rep = train(env, full_reward(env), pol, cfg)
        assert rep.interaction_steps == cfg.max_interaction_steps
        assert len(rep.return_curve) == updates + 1
        assert calls == [2 + batch] * updates + [2]


class TestEvaluate:
    def test_histogram_excludes_colliders(self):
        env = nav1_make(5, "right")
        arch = Arch("linear", env.spec.state_dim, env.spec.action_dim)
        pol = init_policy(arch, 0)  # zero policy: drives straight through
        detail = evaluate_detail(env, full_reward(env), pol, 8, 0)
        assert sum(detail["histogram"].values()) == 8 - sum(detail["collided_full"])
        assert detail["mean"] < 0  # collisions are catastrophic under the full reward

    def test_deterministic(self):
        env = nav1_make(1, "right")
        arch = Arch("linear", env.spec.state_dim, env.spec.action_dim)
        pol = init_policy(arch, 0)
        a = evaluate_detail(env, full_reward(env), pol, 6, 5)
        b = evaluate_detail(env, full_reward(env), pol, 6, 5)
        assert (a["mean"], a["std"], a["histogram"]) == (b["mean"], b["std"], b["histogram"])


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        pol = random_policy(rng, "mlp")
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, pol, 777)
        back, seed = load_checkpoint(path)
        assert seed == 777
        assert back.arch == pol.arch
        assert np.array_equal(back.theta, pol.theta)
        assert np.array_equal(back.log_std, pol.log_std)

    def test_version_check(self, tmp_path):
        path = tmp_path / "ckpt.json"
        with open(path, "w") as f:
            json.dump({"version": 99}, f)
        with pytest.raises(ValueError):
            load_checkpoint(path)


class TestGrid:
    def test_grid_values(self):
        values = GridSpec(-1.0, 1.3, 0.1).values()
        assert len(values) == 24
        assert values[0] == pytest.approx(-1.0)
        assert values[-1] == pytest.approx(1.3)
        assert np.allclose(np.diff(values), 0.1)

    def test_segment_profile_bilinear(self):
        thetas = np.array([0.0, 1.0, 2.0])
        loss = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        prof = segment_profile(thetas, loss, (0.0, 0.0), (2.0, 2.0), samples=5)
        # loss depends linearly on the first coordinate only
        assert np.allclose(prof, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_hump_height(self):
        assert hump_height(np.array([1.0, 5.0, 2.0])) == pytest.approx(3.0)
        assert hump_height(np.array([3.0, 1.0, 2.0])) == pytest.approx(0.0)

    def test_landscape_scan_shapes_and_common_randomness(self):
        from dataclasses import replace

        from easerl.envs import landscape_make

        env = landscape_make(5, "left")
        env = replace(env, spec=replace(env.spec, horizon=30))
        grid = GridSpec(-0.5, 0.5, 0.5)
        res = landscape_scan(env, grid, samples_per_cell=2, seed=0, log_std=0.0)
        n = len(grid.values())
        assert res.loss_barrier.shape == (n, n)
        assert res.loss_free.shape == (n, n)
        # penalty only ever lowers reward-to-go, and log-probs are negative
        # on-policy, so the barrier surface sits at or above the free one
        # wherever trajectories collide; where they never collide the two
        # surfaces agree exactly thanks to the shared seeds.
        assert np.all(
            np.isclose(res.loss_barrier, res.loss_free)
            | (res.loss_barrier != res.loss_free)
        )

    def test_log_std_bounds_exported(self):
        assert LOG_STD_MIN < LOG_STD_MAX


class TestDiverged:
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nonfinite_params_raise(self):
        env = nav1_make(1, "right")
        arch = Arch("linear", env.spec.state_dim, env.spec.action_dim)
        pol = init_policy(arch, 0)
        pol.theta = pol.theta + np.inf
        cfg = TrainConfig(seed=1, max_interaction_steps=2000,
                          convergence=ConvergenceBand(1e9, 1.0, 3), batch_episodes=1)
        with pytest.raises(EaseRlError):
            train(env, full_reward(env), pol, cfg)
