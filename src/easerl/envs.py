"""Curriculum-parameterized environments.

The two tasks share one contract: deterministic kinematics, a barrier region
that only ever affects reward (never transitions), and a reward assembled as
base(s, a, s') minus a curriculum-controlled barrier penalty.  Kinematics,
shaping, goal, start and horizon are fixed parts of each task, stated once
here as constants; only the barrier penalty is a curriculum knob.  Every
barrier is a RegionSet in the x-y plane, the plane of the car's trajectories
and homotopy classes.  The curriculum knob is either a weight alpha in [0, 1]
on the full-barrier penalty or an active subset of the barrier (again a
RegionSet) charged at full magnitude.

nav1: 20x20 field, car starts below a centered rectangular barrier (width in
{1, 3, 5, 7}, depth 2) and must reach the goal band at the top, passing on a
target side.  The side bonus follows the car's heading and anneals linearly
to zero while a distance-to-goal term ramps up.

nav2: same field with two stacked 9x4 barriers; +500 for passing each barrier
on its target side, +2000 at the goal, plus a potential-difference shaping
term.  Returns are undiscounted so the documented >3000 success threshold is
meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import ClassVar

import numpy as np

from . import rl as _rl
from .errors import NonFiniteAction, UnsupportedSize
from .geometry import ConvexPolygon, Point2, RegionSet, contains
from .homotopy import Trajectory
from .seeding import rng_for

FIELD_HALF = 10.0
NAV_SIZES = (1, 3, 5, 7)
PENALTY = 1000.0  # the barrier penalty M of every task
HORIZON = 128  # episode length of every task but the landscape scan's


@dataclass(frozen=True)
class MdpSpec:
    state_dim: int  # observation feature dimension
    action_dim: int
    horizon: int
    discount: float

    def __post_init__(self):
        if not (0.0 < self.discount <= 1.0):
            raise ValueError("discount must be in (0, 1]")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")


@dataclass(frozen=True)
class RewardSpec:
    """Curriculum knob: penalty weight or active barrier subset.

    mode "reward_weight": reward = base - alpha * M * [s' in full barrier].
    mode "barrier_set":   reward = base - M * [s' in active subset].

    The active subset is a RegionSet in the task plane, as the barrier is.
    """

    mode: str
    alpha: float = 1.0
    active: RegionSet | None = None  # the charged subset when mode == "barrier_set"

    def __post_init__(self):
        if self.mode not in ("reward_weight", "barrier_set"):
            raise ValueError(f"unknown reward mode {self.mode!r}")
        if self.mode == "reward_weight" and not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must be in [0, 1]")
        if self.mode == "barrier_set" and self.active is None:
            raise ValueError("barrier_set mode needs an active subset")


def relaxed_reward(env) -> RewardSpec:
    return RewardSpec("reward_weight", alpha=0.0)


def full_reward(env) -> RewardSpec:
    return RewardSpec("reward_weight", alpha=1.0)


@dataclass(frozen=True)
class StepResult:
    """One transition, for one state or elementwise over a (B, D) batch."""

    state: np.ndarray
    reward: float | np.ndarray
    terminal: bool | np.ndarray
    collided: bool | np.ndarray  # membership of the penalized set this step
    base: float | np.ndarray  # the reward before the barrier penalty


# car state vector layout: [x, y, heading, speed, ang_vel, t, flags...]
_IX, _IY, _IH, _IV, _IW, _IT = 0, 1, 2, 3, 4, 5


@dataclass(frozen=True)
class CarEnv:
    """Unicycle car in the 20x20 field with a rectangular barrier union.

    The state methods take one state vector or a batch with leading axes,
    and work elementwise over the batch.
    """

    dt: ClassVar[float] = 0.1
    v_set: ClassVar[float] = 2.0
    kp: ClassVar[float] = 2.0
    steer_max: ClassVar[float] = 1.5
    start: ClassVar[tuple[float, float]] = (0.0, -8.0)
    goal_poly: ClassVar[ConvexPolygon] = ConvexPolygon.rectangle(0.0, 9.0, 2.0 * FIELD_HALF, 2.0)
    goal_y: ClassVar[float] = goal_poly.bbox()[1]  # the goal band's lower edge

    name: str
    spec: MdpSpec
    barrier: RegionSet
    target_bits: tuple[int, ...]  # per part: 1 = left, 0 = right
    c_side: float
    c_goal: float
    goal_bonus: float
    c_pot: float = 0.0
    side_bonus: float = 0.0
    barrier_tops: tuple[float, ...] = ()
    obs_mode: str = "full"  # "full" | "position"

    def initial_state(self) -> np.ndarray:
        n_flags = len(self.barrier_tops)
        v = np.zeros(6 + n_flags)
        v[_IX], v[_IY] = self.start
        v[_IH] = math.pi / 2.0
        return v

    def features(self, state: np.ndarray) -> np.ndarray:
        if self.obs_mode == "position":
            return np.stack([state[..., _IX] / FIELD_HALF, state[..., _IY] / FIELD_HALF], axis=-1)
        n_flags = len(self.barrier_tops)
        out = np.empty(state.shape[:-1] + (7 + n_flags,))
        out[..., 0] = state[..., _IX] / FIELD_HALF
        out[..., 1] = state[..., _IY] / FIELD_HALF
        out[..., 2] = np.cos(state[..., _IH])
        out[..., 3] = np.sin(state[..., _IH])
        out[..., 4] = state[..., _IV] / self.v_set
        out[..., 5] = state[..., _IW] / self.steer_max
        out[..., 6] = state[..., _IT] / self.spec.horizon
        out[..., 7:] = state[..., 6:]
        return out

    def dynamics(self, state: np.ndarray, action: np.ndarray) -> np.ndarray:
        omega = np.minimum(np.maximum(action[..., 0], -1.0), 1.0) * self.steer_max
        heading = state[..., _IH] + omega * self.dt
        speed = state[..., _IV] + self.kp * (self.v_set - state[..., _IV]) * self.dt
        nxt = state.copy()
        nxt[..., _IH] = heading
        nxt[..., _IV] = speed
        nxt[..., _IX] = state[..., _IX] + speed * np.cos(heading) * self.dt
        nxt[..., _IY] = state[..., _IY] + speed * np.sin(heading) * self.dt
        nxt[..., _IW] = omega
        nxt[..., _IT] = state[..., _IT] + 1.0
        for i, top in enumerate(self.barrier_tops):
            flag = nxt[..., 6 + i]
            nxt[..., 6 + i] = np.where((flag == 0.0) & (nxt[..., _IY] >= top), 1.0, flag)
        return nxt

    def outcome(self, state: np.ndarray, action: np.ndarray, nxt: np.ndarray):
        """(base reward, terminal flag) of a transition; goal membership of
        `nxt` is tested once for both."""
        goal = self.in_goal(nxt)
        t_norm = state[..., _IT] / self.spec.horizon
        r = np.zeros(np.shape(t_norm))
        if self.c_side:
            side_sign = 1.0 if self.target_bits[0] == 1 else -1.0
            r = r + self.c_side * (1.0 - t_norm) * side_sign * np.sin(nxt[..., _IH] - math.pi / 2.0)
        if self.c_goal:
            dist = np.maximum(0.0, self.goal_y - nxt[..., _IY])
            r = r + -self.c_goal * t_norm * dist / 16.0
        if self.c_pot:
            d_prev = np.maximum(0.0, self.goal_y - state[..., _IY])
            d_next = np.maximum(0.0, self.goal_y - nxt[..., _IY])
            r = r + self.c_pot * (d_prev - d_next)
        if self.side_bonus:
            passed_left = nxt[..., _IX] < 0.0
            for i in range(len(self.barrier_tops)):
                passed = (state[..., 6 + i] == 0.0) & (nxt[..., 6 + i] == 1.0)
                on_target = passed_left == (self.target_bits[i] == 1)
                r = r + np.where(passed & on_target, self.side_bonus, 0.0)
        if self.goal_bonus:
            r = r + np.where(goal, self.goal_bonus, 0.0)
        return r, goal | (nxt[..., _IT] >= self.spec.horizon)

    def in_goal(self, state: np.ndarray):
        return self.goal_poly.contains_point(state[..., _IX], state[..., _IY])

    def in_region(self, state: np.ndarray, region: RegionSet):
        return contains(region, state[..., :2])

    def task_point(self, state: np.ndarray) -> tuple:
        return state[..., _IX], state[..., _IY]

    def anchors(self) -> tuple[Point2, Point2]:
        gx0, gy0, gx1, gy1 = self.goal_poly.bbox()
        return Point2(*self.start), Point2(0.5 * (gx0 + gx1), 0.5 * (gy0 + gy1))

    def class_label(self, bits: tuple[int, ...]) -> str:
        return "".join("L" if b else "R" for b in bits)


def _side_to_bit(side: str) -> int:
    if side not in ("left", "right"):
        raise ValueError(f"target side must be 'left' or 'right', got {side!r}")
    return 1 if side == "left" else 0


def nav1_barrier(width: float) -> RegionSet:
    """nav1's barrier of the given width (depth 2), centered on the origin;
    narrower ones are the subsets of a barrier_set schedule."""
    return RegionSet((ConvexPolygon.rectangle(0.0, 0.0, float(width), 2.0),), PENALTY)


def nav1_make(barrier_size: int, target_side: str = "right") -> CarEnv:
    """Single centered barrier of the given width, start below, goal band
    above."""
    if barrier_size not in NAV_SIZES:
        raise UnsupportedSize(f"nav1 barrier size must be one of {NAV_SIZES}")
    return CarEnv(
        name=f"nav1-{barrier_size}",
        spec=MdpSpec(7, 1, HORIZON, 0.99),
        barrier=nav1_barrier(barrier_size),
        target_bits=(_side_to_bit(target_side),),
        c_side=0.3,
        c_goal=2.0,
        goal_bonus=50.0,
    )


def nav2_make(target_classes: str = "RR") -> CarEnv:
    """Two stacked 9x4 barriers; letters in target_classes order bottom, top."""
    if len(target_classes) != 2 or any(c not in "LR" for c in target_classes):
        raise ValueError("nav2 target must be two letters from {L, R}")
    bottom = ConvexPolygon.rectangle(0.0, -3.5, 9.0, 4.0)
    top = ConvexPolygon.rectangle(0.0, 3.5, 9.0, 4.0)
    return CarEnv(
        name="nav2",
        spec=MdpSpec(9, 1, HORIZON, 1.0),
        barrier=RegionSet((bottom, top), PENALTY),
        target_bits=tuple(1 if c == "L" else 0 for c in target_classes),
        c_side=1.0,
        c_goal=0.0,
        goal_bonus=2000.0,
        c_pot=10.0,
        side_bonus=500.0,
        barrier_tops=(bottom.bbox()[3], top.bbox()[3]),
    )


def landscape_make(barrier_size: int = 5, target_side: str = "left") -> CarEnv:
    """nav1 variant for loss-surface scans: the policy sees position only,
    over 100 steps."""
    env = nav1_make(barrier_size, target_side)
    return replace(
        env,
        name=f"landscape-{barrier_size}",
        spec=replace(env.spec, state_dim=2, horizon=100),
        obs_mode="position",
    )


def penalty_region(env, reward_spec: RewardSpec):
    """The set whose membership is charged this step under the given spec."""
    if reward_spec.mode == "reward_weight":
        return env.barrier
    return reward_spec.active


def penalty_charge(env, reward_spec: RewardSpec) -> float:
    """The penalty charged inside `penalty_region` under the given spec."""
    if reward_spec.mode == "reward_weight":
        return reward_spec.alpha * env.barrier.penalty
    return env.barrier.penalty


@dataclass(frozen=True)
class RowRewards:
    """One reward spec per row of a lockstep batch.

    Row b is charged charge[b] inside regions[group[b]].  Rows whose specs
    penalize equal sets share a group, so each distinct set is tested once
    per step.
    """

    regions: tuple[RegionSet, ...]
    group: np.ndarray  # (B,) index into regions
    charge: np.ndarray  # (B,)

    @staticmethod
    def of(env, specs) -> "RowRewards":
        index: dict[RegionSet, int] = {}
        group = [index.setdefault(penalty_region(env, spec), len(index)) for spec in specs]
        charge = [penalty_charge(env, spec) for spec in specs]
        return RowRewards(tuple(index), np.array(group, dtype=int), np.array(charge, dtype=float))

    def take(self, rows) -> "RowRewards":
        return RowRewards(self.regions, self.group[rows], self.charge[rows])

    def member(self, env, state: np.ndarray) -> np.ndarray:
        """Each row's membership of its own penalized set."""
        if len(self.regions) == 1:
            return env.in_region(state, self.regions[0])
        out = np.zeros(len(self.group), dtype=bool)
        for k, region in enumerate(self.regions):
            rows = self.group == k
            out[rows] = env.in_region(state[rows], region)
        return out


def step(env, state: np.ndarray, action, reward_spec) -> StepResult:
    """One transition of one state, or of each row of a (B, D) state batch.

    `reward_spec` is a RewardSpec for every row, or the RowRewards of the
    batch.  The kinematic update never depends on the reward spec.
    """
    a = np.asarray(action, dtype=float).reshape(np.shape(state)[:-1] + (-1,))
    if not np.isfinite(a).all():
        raise NonFiniteAction(f"non-finite action {a}")
    nxt = env.dynamics(state, a)
    base, terminal = env.outcome(state, a, nxt)
    if isinstance(reward_spec, RowRewards):
        member, charge = reward_spec.member(env, nxt), reward_spec.charge
    else:
        member = env.in_region(nxt, penalty_region(env, reward_spec))
        charge = penalty_charge(env, reward_spec)
    reward = base - np.where(member, charge, 0.0)
    return StepResult(nxt, reward, terminal, member, base)


def noise_tapes(env, seeds) -> np.ndarray:
    """(B, horizon, action_dim) Gaussian tapes, one per episode seed.

    A tape is keyed by its seed alone, so identical seeds give identical
    noise regardless of policy parameters or of the batch around them.
    """
    shape = (env.spec.horizon, env.spec.action_dim)
    tapes = np.empty((len(seeds),) + shape)
    for b, seed in enumerate(seeds):
        tapes[b] = rng_for(seed, "noise").standard_normal(shape)
    return tapes


@dataclass
class RolloutRecord:
    obs: np.ndarray  # (T, obs_dim)
    actions: np.ndarray  # (T, action_dim)
    rewards: np.ndarray  # (T,)
    trajectory: Trajectory
    ret: float
    collided: bool


@dataclass
class RolloutBatch:
    """B episodes stepped in lockstep.

    Episode b owns the first lengths[b] steps of each per-step array (and
    lengths[b] + 1 states); entries after its end are zero.
    """

    obs: np.ndarray  # (B, horizon, obs_dim)
    actions: np.ndarray  # (B, horizon, action_dim)
    rewards: np.ndarray  # (B, horizon)
    base: np.ndarray  # (B, horizon) rewards before the barrier penalty
    member: np.ndarray  # (B, horizon) membership of the penalized set
    states: np.ndarray  # (B, horizon + 1, state vector size)
    lengths: np.ndarray  # (B,)
    returns: np.ndarray  # (B,) discounted returns

    @property
    def collided(self) -> np.ndarray:
        return self.member.any(axis=1)

    def trajectory(self, env, b: int) -> Trajectory:
        raw = self.states[b, : self.lengths[b] + 1]
        return Trajectory(np.stack(env.task_point(raw), axis=-1), raw)

    def record(self, env, b: int) -> RolloutRecord:
        t_len = self.lengths[b]
        return RolloutRecord(
            self.obs[b, :t_len],
            self.actions[b, :t_len],
            self.rewards[b, :t_len],
            self.trajectory(env, b),
            float(self.returns[b]),
            bool(self.collided[b]),
        )


def rollout_batch(env, policy, reward_spec, noise: np.ndarray) -> RolloutBatch:
    """Simulate one episode per noise tape, all in lockstep.

    Every episode steps until it terminates, on its own; finished episodes
    drop out of the batch.  `policy` is one policy shared by all episodes,
    or a stacked one (theta of shape (B, theta_size), log_std shared or
    (B, action_dim)) whose row b drives episode b.  `reward_spec` is one
    RewardSpec for all episodes, or a sequence of B specs, one per episode.
    The batch-size-independent forward pass gives each episode the same bits
    at any B, so an episode's results depend only on its own row's
    parameters, its own reward spec and its own tape.
    """
    n, horizon = noise.shape[0], env.spec.horizon
    stacked = policy.theta.ndim == 2
    if stacked and policy.theta.shape[0] != n:
        raise ValueError(f"{policy.theta.shape[0]} policy rows for {n} noise tapes")
    per_row = not isinstance(reward_spec, RewardSpec)
    if per_row:
        if len(reward_spec) != n:
            raise ValueError(f"{len(reward_spec)} reward specs for {n} noise tapes")
        reward_spec = RowRewards.of(env, reward_spec)
    state = np.repeat(env.initial_state()[None, :], n, axis=0)
    states = np.zeros((n, horizon + 1, state.shape[1]))
    states[:, 0] = state
    obs = np.zeros((n, horizon, env.spec.state_dim))
    actions = np.zeros((n, horizon, env.spec.action_dim))
    rewards = np.zeros((n, horizon))
    base = np.zeros((n, horizon))
    member = np.zeros((n, horizon), dtype=bool)
    lengths = np.full(n, horizon)
    returns = np.zeros(n)
    gamma_t = 1.0
    live = np.arange(n)
    for t in range(horizon):
        if live.size == 0:
            break
        o = env.features(state)
        a = _rl.act(policy, o, noise[live, t])
        res = step(env, state, a, reward_spec)
        obs[live, t] = o
        actions[live, t] = a
        rewards[live, t] = res.reward
        base[live, t] = res.base
        member[live, t] = res.collided
        states[live, t + 1] = res.state
        returns[live] += gamma_t * res.reward
        gamma_t *= env.spec.discount
        state = res.state
        if res.terminal.any():
            lengths[live[res.terminal]] = t + 1
            going = ~res.terminal
            live = live[going]
            state = state[going]
            if stacked:
                policy = policy.take(going)
            if per_row:
                reward_spec = reward_spec.take(going)
    return RolloutBatch(obs, actions, rewards, base, member, states, lengths, returns)


def rollout_record(env, policy, reward_spec: RewardSpec, seed: int) -> RolloutRecord:
    """Simulate one episode; all stochasticity comes from the seed.

    The episode's Gaussian tape is keyed by the seed alone, so identical
    seeds give identical noise regardless of policy parameters.
    """
    batch = rollout_batch(env, policy, reward_spec, noise_tapes(env, [seed]))
    return batch.record(env, 0)


def mean_rollout(env, policy, reward_spec: RewardSpec) -> Trajectory:
    """Noise-free rollout (the policy's mean action at every step)."""
    return drive(env, mean_trajectory(env, policy, reward_spec))


def mean_trajectory(env, policy, reward_spec: RewardSpec):
    """`mean_rollout` as a request generator (see `serve`)."""
    zero = np.zeros((1, env.spec.horizon, env.spec.action_dim))
    batch = yield RolloutRequest(policy, reward_spec, zero)
    return batch.trajectory(env, 0)


@dataclass(frozen=True)
class RolloutRequest:
    """One engine call that a run asks for: rollout_batch(env, policy,
    reward_spec, noise) on the environment its scheduler serves."""

    policy: _rl.PolicyParams  # shared or stacked
    reward_spec: RewardSpec
    noise: np.ndarray  # (rows, horizon, action_dim)


def serve(env, runs) -> list:
    """Run request generators to the end in lockstep; returns their values.

    A run is a generator that yields RolloutRequests, is sent each one's
    RolloutBatch, and returns its result.  Every round, the pending requests
    of all live runs go into one rollout_batch call: their policies stacked
    row by row (theta and log_std), one reward spec per row, their tapes
    concatenated.  Each run is sent a copy of its own rows.  An episode's
    bits depend only on its own row, so a run's results do not depend on
    which runs share its engine calls.  An exception in any run propagates.
    """
    runs = list(runs)
    results: list = [None] * len(runs)
    pending: dict[int, RolloutRequest] = {}

    def advance(i: int, batch) -> None:
        try:
            pending[i] = runs[i].send(batch)
        except StopIteration as stop:
            pending.pop(i, None)
            results[i] = stop.value

    for i in range(len(runs)):
        advance(i, None)
    while pending:
        ids = list(pending)
        requests = [pending[i] for i in ids]
        if len(requests) == 1:
            req = requests[0]
            pieces = [rollout_batch(env, req.policy, req.reward_spec, req.noise)]
        else:
            pieces = _split_rows(rollout_batch(env, *_merge_requests(requests)), requests)
        for i, piece in zip(ids, pieces):
            advance(i, piece)
    return results


def drive(env, run):
    """Run one request generator, each request an engine call of its own."""
    return serve(env, [run])[0]


def _merge_requests(requests: list[RolloutRequest]):
    """(stacked policy, per-row reward specs, noise) of one merged call."""
    arch = requests[0].policy.arch
    if any(r.policy.arch != arch for r in requests):
        raise ValueError("requests of different policy shapes cannot share an engine call")
    rows = [len(r.noise) for r in requests]
    theta = np.concatenate([
        np.broadcast_to(r.policy.theta, (n, arch.theta_size())) for r, n in zip(requests, rows)
    ])
    log_std = np.concatenate([
        np.broadcast_to(r.policy.log_std, (n, arch.action_dim)) for r, n in zip(requests, rows)
    ])
    specs = [r.reward_spec for r, n in zip(requests, rows) for _ in range(n)]
    noise = np.concatenate([r.noise for r in requests])
    return _rl.PolicyParams(arch, theta, log_std), specs, noise


def _split_rows(batch: RolloutBatch, requests: list[RolloutRequest]) -> list[RolloutBatch]:
    """Each request's rows of a merged batch, as arrays of their own."""
    out, lo = [], 0
    for r in requests:
        rows = slice(lo, lo + len(r.noise))
        out.append(RolloutBatch(*(getattr(batch, f.name)[rows].copy() for f in fields(batch))))
        lo = rows.stop
    return out
