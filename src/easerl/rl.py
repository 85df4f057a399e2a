"""Gaussian policies and a self-contained REINFORCE engine.

Policies map observation features to a diagonal Gaussian over actions.  The
mean network is either linear (no bias) or a one-hidden-layer tanh MLP;
log-stddevs are trainable per action dimension and clamped to [-5, 1].
Training is plain stochastic gradient ascent on the REINFORCE estimator with
reward-to-go and a per-timestep batch-mean baseline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import envs as _envs
from . import homotopy as _homotopy
from .errors import DivergedTraining, NonFiniteState
from .seeding import derive_seed

LOG_STD_MIN = -5.0
LOG_STD_MAX = 1.0
LOG_STD_INIT = -0.7  # every policy's initial log-stddev
_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class Arch:
    """Mean-network shape descriptor."""

    kind: str  # "linear" | "mlp"
    obs_dim: int
    action_dim: int
    hidden: int = 32

    def __post_init__(self):
        if self.kind not in ("linear", "mlp"):
            raise ValueError(f"unknown arch kind {self.kind!r}")
        if self.obs_dim < 1 or self.action_dim < 1 or self.hidden < 1:
            raise ValueError("arch dims must be positive")

    def theta_size(self) -> int:
        if self.kind == "linear":
            return self.action_dim * self.obs_dim
        return (
            self.hidden * self.obs_dim
            + self.hidden
            + self.action_dim * self.hidden
            + self.action_dim
        )

    def hidden_width(self) -> int:
        """Width of the hidden layer: none for a linear policy."""
        return self.hidden if self.kind == "mlp" else 0


@dataclass
class PolicyParams:
    """Flat mean-network weights plus per-dimension log-stddev.

    `theta` is one flat weight vector, shared by every row of a batch, or a
    stack of shape (B, theta_size) whose row b holds the weights of batch
    row b (many policies stepped in one engine call).  `log_std` is shared
    by every row, or, with stacked `theta`, a (B, action_dim) stack whose
    row b belongs to batch row b.
    """

    arch: Arch
    theta: np.ndarray
    log_std: np.ndarray

    def __post_init__(self):
        # C order: the forward pass reduces each row in memory order, so a
        # row's bits depend on the layout of theta
        theta = np.ascontiguousarray(self.theta, dtype=float)
        self.theta = theta if theta.ndim == 2 else theta.reshape(-1)
        log_std = np.ascontiguousarray(self.log_std, dtype=float)
        per_row = log_std.ndim == 2 and self.theta.ndim == 2
        self.log_std = log_std if per_row else log_std.reshape(-1)
        if self.theta.shape[-1] != self.arch.theta_size():
            raise ValueError(
                f"theta size {self.theta.shape[-1]} != arch size {self.arch.theta_size()}"
            )
        if self.log_std.shape[-1] != self.arch.action_dim:
            raise ValueError("log_std must have one entry per action dimension")
        if per_row and self.log_std.shape[0] != self.theta.shape[0]:
            raise ValueError(
                f"{self.log_std.shape[0]} log_std rows for {self.theta.shape[0]} theta rows"
            )

    def copy(self) -> "PolicyParams":
        return PolicyParams(self.arch, self.theta.copy(), self.log_std.copy())

    def flat(self) -> np.ndarray:
        """Full trainable vector: mean weights then log_std entries."""
        return np.concatenate([self.theta, self.log_std])


def init_policy(arch: Arch, seed: int) -> PolicyParams:
    """He-uniform init for MLP weights; linear policies start at zero; the
    log-stddev starts at LOG_STD_INIT."""
    if arch.kind == "linear":
        theta = np.zeros(arch.theta_size())
    else:
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "init")))
        lim1 = math.sqrt(6.0 / arch.obs_dim)
        w1 = rng.uniform(-lim1, lim1, size=(arch.hidden, arch.obs_dim))
        b1 = np.zeros(arch.hidden)
        lim2 = math.sqrt(6.0 / arch.hidden)
        w2 = rng.uniform(-lim2, lim2, size=(arch.action_dim, arch.hidden))
        b2 = np.zeros(arch.action_dim)
        theta = np.concatenate([w1.ravel(), b1, w2.ravel(), b2])
    log_std = np.full(arch.action_dim, LOG_STD_INIT)
    return PolicyParams(arch, theta, log_std)


def _unpack_mlp(arch: Arch, theta: np.ndarray):
    """Weights and biases from a flat theta, keeping any leading axes."""
    h, i, o = arch.hidden, arch.obs_dim, arch.action_dim
    lead = theta.shape[:-1]
    k = 0
    w1 = theta[..., k : k + h * i].reshape(lead + (h, i))
    k += h * i
    b1 = theta[..., k : k + h]
    k += h
    w2 = theta[..., k : k + o * h].reshape(lead + (o, h))
    k += o * h
    b2 = theta[..., k : k + o]
    return w1, b1, w2, b2


def _affine(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w.T over any leading batch axes.

    A plain einsum reduces each row on its own, so a row's result has the
    same bits whatever the batch around it; BLAS matmul does not promise that.
    """
    return np.einsum("...i,hi->...h", x, w)


def _affine_rows(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """`_affine` with one weight matrix per leading row: w is (..., h, i)
    with leading axes that broadcast against x's.  Each row reduces as in
    `_affine`, so it gets the bits of its own policy alone."""
    return np.einsum("...i,...hi->...h", x, w)


def mean_net(policy: PolicyParams, extra_axes: int = 0):
    """The mean network as a function of observations, its weights unpacked
    once.  With a stacked policy, the function gives obs[b] (shape
    (B, <extra_axes axes>, obs_dim)) the weights theta[b].  The function
    takes an optional buffer `hidden`, shaped (..., arch.hidden_width()), and
    writes the MLP's hidden layer tanh(w1 obs + b1) into it."""
    arch = policy.arch
    theta = policy.theta
    affine = _affine
    if theta.ndim == 2:
        # row b's weights, broadcast over the further axes of obs[b]
        theta = theta.reshape(theta.shape[:1] + (1,) * extra_axes + theta.shape[1:])
        affine = _affine_rows
    if arch.kind == "linear":
        w = theta.reshape(theta.shape[:-1] + (arch.action_dim, arch.obs_dim))
        return lambda obs, hidden=None: affine(obs, w)
    w1, b1, w2, b2 = _unpack_mlp(arch, theta)
    return lambda obs, hidden=None: affine(np.tanh(affine(obs, w1) + b1, out=hidden), w2) + b2


def mean_batch(policy: PolicyParams, obs: np.ndarray) -> np.ndarray:
    """Mean actions for (..., obs_dim) observations, row by row (`mean_net`)."""
    obs = np.asarray(obs, dtype=float)
    return mean_net(policy, obs.ndim - 2)(obs)


def _gaussian_log_prob(log_std: np.ndarray, z: np.ndarray):
    """Diagonal Gaussian log density of standardized residuals z (..., action_dim)."""
    return -log_std.sum() - 0.5 * (z * z).sum(axis=-1) - 0.5 * z.shape[-1] * _LOG_2PI


def act(policy: PolicyParams, obs: np.ndarray, noise: np.ndarray):
    """Sample actions as mean + exp(log_std) * noise.

    `obs` is one observation or a (B, obs_dim) batch with a matching
    (B, action_dim) noise batch; each row's action has the same bits at any B.
    A stacked policy gives row b the weights theta[b] (and log_std[b] when
    log_std is stacked too).
    """
    obs = np.asarray(obs, dtype=float)
    if not np.isfinite(obs).all():
        raise NonFiniteState(f"non-finite observation {obs}")
    noise = np.asarray(noise, dtype=float)
    return mean_batch(policy, obs) + np.exp(policy.log_std) * noise


def log_prob_batch(policy: PolicyParams, obs: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """log pi(a|s) for (..., obs_dim) observations and (..., action_dim) actions.

    A stacked policy scores the rows obs[b], actions[b] under theta[b]; its
    log_std must be shared.
    """
    if policy.log_std.ndim != 1:
        raise ValueError("log_prob_batch needs a shared log_std")
    mean = mean_batch(policy, obs)
    std = np.exp(policy.log_std)
    return _gaussian_log_prob(policy.log_std, (np.asarray(actions, dtype=float) - mean) / std)


def episode_grad(
    policy: PolicyParams,
    obs: np.ndarray,
    actions: np.ndarray,
    weights: np.ndarray,
    hidden: np.ndarray | None = None,
) -> np.ndarray:
    """Sum over timesteps of weights[t] * d log pi(a_t|s_t) / d params.

    Returns the gradient over the full trainable vector (theta then log_std).
    An MLP's hidden layer tanh(w1 obs + b1) is computed here unless `hidden`
    gives it, as a rollout's `RolloutBatch.hidden` does with the same bits.
    """
    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    actions = np.atleast_2d(np.asarray(actions, dtype=float))
    weights = np.asarray(weights, dtype=float).reshape(-1)
    std = np.exp(policy.log_std)
    if policy.arch.kind == "linear":
        mean = mean_batch(policy, obs)
        delta = (actions - mean) / (std * std)  # (T, out)
        wd = delta * weights[:, None]
        d_w = wd.T @ obs  # (out, in)
        d_theta = d_w.ravel()
    else:
        w1, b1, w2, b2 = _unpack_mlp(policy.arch, policy.theta)
        if hidden is None:
            hidden = np.tanh(_affine(obs, w1) + b1)
        mean = _affine(hidden, w2) + b2
        delta = (actions - mean) / (std * std)
        wd = delta * weights[:, None]
        d_w2 = wd.T @ hidden
        d_b2 = wd.sum(axis=0)
        d_hidden = wd @ w2
        d_z1 = d_hidden * (1.0 - hidden * hidden)
        d_w1 = d_z1.T @ obs
        d_b1 = d_z1.sum(axis=0)
        d_theta = np.concatenate([d_w1.ravel(), d_b1, d_w2.ravel(), d_b2])
    z = (actions - mean) / std
    d_log_std = np.sum(weights[:, None] * (z * z - 1.0), axis=0)
    return np.concatenate([d_theta, d_log_std])


def reward_to_go(rewards: np.ndarray, discount: float) -> np.ndarray:
    """G_t = sum_{k>=t} discount^(k-t) r_k along the last axis.

    Zero rewards after an episode's end leave its G_t bit-identical to the
    unpadded episode's, so padded (B, T) batches can be handled at once.
    """
    rewards = np.asarray(rewards, dtype=float)
    out = np.zeros(rewards.shape)
    acc = np.zeros(rewards.shape[:-1])
    for t in range(rewards.shape[-1] - 1, -1, -1):
        acc = rewards[..., t] + discount * acc
        out[..., t] = acc
    return out


@dataclass(frozen=True)
class ConvergenceBand:
    """Training stops once the mean eval return stays inside the band."""

    center: float
    half_width: float
    patience: int


@dataclass(frozen=True)
class TrainConfig:
    seed: int
    max_interaction_steps: int
    convergence: ConvergenceBand
    learning_rate: float = 1e-3
    batch_episodes: int = 10
    eval_every: int = 4096
    eval_episodes: int = 8
    # when the band is never reached, hand back the best-evaluated checkpoint
    # instead of wherever the final update happened to land
    keep_best: bool = False


@dataclass
class TrainReport:
    """Outcome of a training run.

    interaction_steps counts environment steps consumed by training episodes;
    evaluation rollouts are not charged.  return_curve holds (step, mean eval
    return) pairs with strictly increasing step indices.
    """

    params: PolicyParams
    interaction_steps: int
    return_curve: tuple[tuple[int, float], ...]
    converged: bool


def train(
    env,
    reward_spec,
    init: PolicyParams,
    cfg: TrainConfig,
    l2sp: tuple[float, np.ndarray] | None = None,
) -> TrainReport:
    """REINFORCE with reward-to-go and a per-timestep batch-mean baseline.

    Plain SGD ascent on the return.  When `l2sp` is given as (coeff, ref),
    the objective gains -coeff * ||params - ref||^2 over the full trainable
    vector, pulling the solution toward the reference parameters.  Each
    engine call runs on its own; `training` is the same run as a request
    generator.
    """
    return _envs.drive(env, training(env, reward_spec, init, cfg, l2sp))


def training(
    env,
    reward_spec,
    init: PolicyParams,
    cfg: TrainConfig,
    l2sp: tuple[float, np.ndarray] | None = None,
    accept=None,
):
    """`train` as a request generator: it yields an `envs.RolloutRequest`
    for every engine call it needs, is sent the call's `RolloutBatch`, and
    returns the TrainReport.  `envs.serve` runs many of these in lockstep.

    `accept`, when given, is a request generator `accept(policy) -> bool`
    that runs each time the band streak reaches its patience: accepting
    ends the run as converged, rejecting starts the streak over.

    An evaluation samples the same policy under the same reward spec as the
    batch after it, so while the budget admits that batch, the evaluation's
    episodes share one engine call with the batch's first piece.  If the
    evaluation ends the run, those training episodes are dropped uncharged;
    an episode's bits depend only on its own row, so sharing changes no bit.
    """
    policy = init.copy()
    discount = env.spec.discount
    horizon = env.spec.horizon
    n_theta = policy.theta.size
    steps = 0
    episode_idx = 0
    eval_idx = 0
    next_eval = cfg.eval_every
    curve: list[tuple[int, float]] = []
    streak = 0
    converged = False

    best_mean = -math.inf
    best_params: PolicyParams | None = None

    def piece_size(left: int) -> int:
        """Episodes of the next piece: as many of `left` as the budget admits
        while steps + horizon <= budget, whatever their lengths."""
        return min(left, (cfg.max_interaction_steps - steps) // horizon)

    def piece_noise(k: int) -> np.ndarray:
        seeds = [derive_seed(cfg.seed, "train-ep", episode_idx + e) for e in range(k)]
        return _envs.noise_tapes(env, seeds)

    def record_eval(at_steps: int):
        """Evaluate the policy in one engine call with the first piece of
        the next batch, which has no rows when the budget admits no batch;
        returns that piece if the run goes on, else None."""
        nonlocal eval_idx, streak, converged, best_mean, best_params
        request = evaluation_request(
            env, reward_spec, policy, cfg.eval_episodes, derive_seed(cfg.seed, "eval", eval_idx)
        )
        n_eval, k = len(request.noise), piece_size(cfg.batch_episodes)
        both = yield _envs.RolloutRequest(
            policy, reward_spec, np.concatenate([request.noise, piece_noise(k)])
        )
        piece = both.rows(n_eval, n_eval + k)  # no rows when the budget admits no batch
        mean = float(np.mean(both.returns[:n_eval]))  # score_evaluation's mean
        eval_idx += 1
        curve.append((at_steps, mean))
        if cfg.keep_best and mean > best_mean:
            best_mean = mean
            best_params = policy.copy()
        band = cfg.convergence
        if abs(mean - band.center) <= band.half_width:
            streak += 1
            if streak >= band.patience:
                converged = accept is None or (yield from accept(policy))
                if not converged:
                    streak = 0
        else:
            streak = 0
        return None if converged else piece

    # evaluate before spending any budget: a policy that already sits inside
    # the band must not be perturbed by further updates
    first = yield from record_eval(0)

    while not converged and steps + horizon <= cfg.max_interaction_steps:
        # run, in lockstep, as many episodes as the budget admits
        pieces = []
        left = cfg.batch_episodes
        while left and steps + horizon <= cfg.max_interaction_steps:
            k = piece_size(left)
            if first is None:
                first = yield _envs.RolloutRequest(policy, reward_spec, piece_noise(k))
            pieces.append(first)
            first = None
            episode_idx += k
            left -= k
            steps += int(pieces[-1].lengths.sum())
        lengths = np.concatenate([p.lengths for p in pieces])
        max_t = int(lengths.max())
        valid = np.arange(max_t) < lengths[:, None]
        g = reward_to_go(np.concatenate([p.rewards[:, :max_t] for p in pieces]), discount)
        baseline = np.nanmean(np.where(valid, g, np.nan), axis=0)

        # normalize advantages across the batch; the barrier penalty makes
        # raw returns span 4 orders of magnitude, which plain SGD cannot take
        adv = (g - baseline)[valid]
        scale = float(np.std(adv)) + 1e-8
        obs = np.concatenate([p.obs[:, :max_t] for p in pieces])[valid]
        actions = np.concatenate([p.actions[:, :max_t] for p in pieces])[valid]
        hidden = np.concatenate([p.hidden[:, :max_t] for p in pieces])[valid]
        grad = episode_grad(policy, obs, actions, adv / scale, hidden) / len(lengths)
        if l2sp is not None:
            coeff, ref = l2sp
            grad -= 2.0 * coeff * (policy.flat() - ref)

        policy.theta = policy.theta + cfg.learning_rate * grad[:n_theta]
        policy.log_std = np.clip(
            policy.log_std + cfg.learning_rate * grad[n_theta:], LOG_STD_MIN, LOG_STD_MAX
        )
        if not (np.all(np.isfinite(policy.theta)) and np.all(np.isfinite(policy.log_std))):
            raise DivergedTraining(f"non-finite parameters after {steps} steps")

        if steps >= next_eval:
            first = yield from record_eval(steps)
            next_eval = (steps // cfg.eval_every + 1) * cfg.eval_every

    if cfg.keep_best and not converged:
        if curve[-1][0] != steps:
            # let the freshest parameters compete too; the budget admits no
            # batch now, so this evaluation's call has no training rows
            yield from record_eval(steps)
        if not converged and best_params is not None:
            policy = best_params

    return TrainReport(policy, steps, tuple(curve), converged)


def evaluate_detail(env, reward_spec, policy: PolicyParams, episodes: int, seed: int) -> dict:
    """Deterministic evaluation: mean and std of the returns, the class
    histogram, and which episodes collide with the full barrier
    (`collided_full`).

    The histogram maps class labels to counts over evaluation rollouts that do
    not collide with the environment's full barrier; colliding rollouts carry
    no class and are left out (episodes minus histogram total = collisions).
    """
    return _envs.drive(env, evaluation(env, reward_spec, policy, episodes, seed))


def evaluation(env, reward_spec, policy: PolicyParams, episodes: int, seed: int):
    """`evaluate_detail` as a request generator (see `training`): its
    `evaluation_request`, scored by `score_evaluation`.  `training` makes
    the same request, with a training batch in the same call, and reads
    only the mean of its returns."""
    batch = yield evaluation_request(env, reward_spec, policy, episodes, seed)
    return score_evaluation(env, batch)


def evaluation_request(env, reward_spec, policy: PolicyParams, episodes: int, seed: int):
    """The engine call of an evaluation: `episodes` rollouts of the policy,
    the tape of episode e keyed by derive_seed(seed, "eval-ep", e)."""
    seeds = [derive_seed(seed, "eval-ep", e) for e in range(episodes)]
    return _envs.RolloutRequest(policy, reward_spec, _envs.noise_tapes(env, seeds))


def score_evaluation(env, batch) -> dict:
    """The `evaluate_detail` dict of an evaluation's RolloutBatch."""
    region = env.barrier
    a_start, a_goal = env.anchors()
    hist: dict[str, int] = {}
    collided_full = []
    for e in range(len(batch.lengths)):
        traj = batch.trajectory(env, e)
        collided_full.append(_homotopy.collides(traj, region))
        if not collided_full[-1]:
            bits = _homotopy.parity_bits(traj, region, a_start, a_goal)
            label = _homotopy.ClassSignature(bits).label()
            hist[label] = hist.get(label, 0) + 1
    return {
        "mean": float(np.mean(batch.returns)),
        "std": float(np.std(batch.returns)),
        "histogram": dict(sorted(hist.items())),
        "collided_full": collided_full,
    }


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    bucket: float

    def values(self) -> np.ndarray:
        n = int(round((self.hi - self.lo) / self.bucket)) + 1
        return self.lo + self.bucket * np.arange(n)


@dataclass
class LandscapeResult:
    thetas: np.ndarray  # grid coordinate values, shared by both axes
    loss_barrier: np.ndarray  # (n, n), rows index theta1, cols theta2
    loss_free: np.ndarray


# episodes per engine call in `landscape_scan`: the scan holds one call's
# arrays at a time, and they grow with the batch, so peak memory, not speed,
# sets the bound
LANDSCAPE_BATCH = 256


def landscape_scan(
    env,
    grid: GridSpec,
    samples_per_cell: int,
    seed: int,
    log_std: float,
) -> LandscapeResult:
    """Estimate the REINFORCE loss surface over a 2-parameter linear policy.

    The loss at a grid point is the mean over sampled episodes of
    sum_t G_t * log pi_theta(a_t|s_t) with reward-to-go G.  The surface is
    scored twice, with the barrier penalty on and off.  Transitions do not
    depend on the reward, so each (cell, sample) episode is simulated once
    and scored under both: the full reward, and its base reward, which is
    exactly the relaxed reward.  The grid's episodes run in (i, j, sample)
    order, LANDSCAPE_BATCH at a time, as one stacked policy whose row b
    carries its own cell's weights; an episode's bits depend only on its
    row, so the split into engine calls does not change the surface.  Each
    call's arrays are freed before the next call runs, so the scan holds
    one call's arrays at a time.
    """
    values = grid.values()
    n = len(values)
    s = samples_per_cell
    cells = np.stack(np.meshgrid(values, values, indexing="ij"), axis=-1).reshape(n * n, 2)
    thetas = np.repeat(cells, s, axis=0)
    seeds = [
        derive_seed(seed, "cell", i, j, "ep", e)
        for i in range(n) for j in range(n) for e in range(s)
    ]
    totals = {"barrier": np.zeros(len(seeds)), "free": np.zeros(len(seeds))}
    for lo in range(0, len(seeds), LANDSCAPE_BATCH):
        hi = min(lo + LANDSCAPE_BATCH, len(seeds))
        policy = PolicyParams(Arch("linear", 2, 1), thetas[lo:hi], np.array([log_std]))
        totals["barrier"][lo:hi], totals["free"][lo:hi] = _scan_call(env, policy, seeds[lo:hi])
    out = {}
    for key, per_episode in totals.items():
        # a running sum in sample order gives each cell the bits of adding
        # its own episodes one by one
        acc = np.zeros(n * n)
        for column in per_episode.reshape(n * n, s).T:
            acc = acc + column
        out[key] = (acc / s).reshape(n, n)
    return LandscapeResult(values, out["barrier"], out["free"])


def _scan_call(env, policy: PolicyParams, seeds) -> tuple[np.ndarray, np.ndarray]:
    """One engine call of `landscape_scan`: each episode's
    sum_t G_t * log pi_theta(a_t|s_t) under the full reward and under its
    base reward.  The call's arrays are local, so they die on return."""
    batch = _envs.rollout_batch(env, policy, _envs.full_reward(env), _envs.noise_tapes(env, seeds))
    lp = log_prob_batch(policy, batch.obs, batch.actions)
    # adjacent episodes of one length (often a cell's samples) are scored
    # by one row sum over a view, which gives each the bits of summing
    # it alone; grouping them by length instead would copy rows
    lengths = batch.lengths
    firsts = np.flatnonzero(np.r_[True, lengths[1:] != lengths[:-1]])
    runs = list(zip(lengths[firsts], firsts, np.r_[firsts[1:], len(lengths)]))
    scores = []
    for rewards in (batch.rewards, batch.base):
        terms = reward_to_go(rewards, env.spec.discount)
        terms *= lp
        per_episode = np.empty(len(lengths))
        for t_len, a, b in runs:
            per_episode[a:b] = terms[a:b, :t_len].sum(axis=1)
        scores.append(per_episode)
    return scores[0], scores[1]


def segment_profile(
    thetas: np.ndarray, loss: np.ndarray, p0, p1, samples: int = 101
) -> np.ndarray:
    """Bilinear interpolation of a grid surface along the segment p0 -> p1.

    Points are clamped to the grid's coordinate range, so segments reaching
    slightly outside the scanned box read the nearest edge value.
    """
    thetas = np.asarray(thetas, dtype=float)
    loss = np.asarray(loss, dtype=float)
    ts = np.linspace(0.0, 1.0, samples)
    xs = p0[0] + ts * (p1[0] - p0[0])
    ys = p0[1] + ts * (p1[1] - p0[1])
    lo, hi = thetas[0], thetas[-1]
    xs = np.clip(xs, lo, hi)
    ys = np.clip(ys, lo, hi)
    n = len(thetas)
    step = thetas[1] - thetas[0] if n > 1 else 1.0
    fx = np.clip((xs - lo) / step, 0.0, n - 1.0)
    fy = np.clip((ys - lo) / step, 0.0, n - 1.0)
    i0 = np.minimum(fx.astype(int), n - 2) if n > 1 else np.zeros(samples, int)
    j0 = np.minimum(fy.astype(int), n - 2) if n > 1 else np.zeros(samples, int)
    ax = fx - i0
    ay = fy - j0
    i1 = np.minimum(i0 + 1, n - 1)
    j1 = np.minimum(j0 + 1, n - 1)
    return (
        loss[i0, j0] * (1 - ax) * (1 - ay)
        + loss[i1, j0] * ax * (1 - ay)
        + loss[i0, j1] * (1 - ax) * ay
        + loss[i1, j1] * ax * ay
    )


def hump_height(profile: np.ndarray) -> float:
    """How far the interior of a path profile rises above its endpoints."""
    profile = np.asarray(profile, dtype=float)
    return float(profile.max() - max(profile[0], profile[-1]))


CHECKPOINT_VERSION = 1


def save_checkpoint(path, policy: PolicyParams, seed: int) -> None:
    doc = {
        "version": CHECKPOINT_VERSION,
        "arch": {
            "kind": policy.arch.kind,
            "obs_dim": policy.arch.obs_dim,
            "action_dim": policy.arch.action_dim,
            "hidden": policy.arch.hidden,
        },
        "theta": [float(v) for v in policy.theta],
        "log_std": [float(v) for v in policy.log_std],
        "seed": int(seed),
    }
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, indent=1)
        f.write("\n")


def load_checkpoint(path) -> tuple[PolicyParams, int]:
    """A checkpoint written by `save_checkpoint`; a file that is not one
    raises ValueError."""
    with open(path) as f:
        doc = json.load(f)
    try:
        if doc["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {doc['version']}")
        arch = Arch(**doc["arch"])
        policy = PolicyParams(arch, np.array(doc["theta"]), np.array(doc["log_std"]))
        return policy, int(doc["seed"])
    except KeyError as exc:
        raise ValueError(f"checkpoint has no key {exc}") from exc
    except TypeError as exc:  # not a JSON object, or an arch that is not one
        raise ValueError(f"malformed checkpoint: {exc}") from exc
