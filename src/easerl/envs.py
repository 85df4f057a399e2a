"""Curriculum-parameterized environments.

The two tasks share one contract: deterministic kinematics, a barrier region
that only ever affects reward (never transitions), and a reward assembled as
base(s, a, s') minus a curriculum-controlled barrier penalty.  Kinematics,
shaping, goal, start and horizon are fixed parts of each task, stated once
here as constants; only the barrier penalty is a curriculum knob.  Every
barrier is a RegionSet in the x-y plane, the plane of the car's trajectories
and homotopy classes.  The curriculum knob is a RewardSpec(region, weight):
the penalty weight * M is charged inside the region, a subset of the barrier
(again a RegionSet), with weight in [0, 1].

nav1: 20x20 field, car starts below a centered rectangular barrier (width in
{1, 3, 5, 7}, depth 2) and must reach the goal band at the top, passing on a
target side.  The side bonus follows the car's heading and anneals linearly
to zero while a distance-to-goal term ramps up.

nav2: same field with two stacked 9x4 barriers; +500 for passing each barrier
on its target side, +2000 at the goal, plus a potential-difference shaping
term.  Returns are undiscounted so the documented >3000 success threshold is
meaningful.

Every transition, in `step` and in the lockstep engine `rollout_batch`, runs
through one batched kernel on the state's columns, `CarEnv.transition`; it
tests the goal and every penalized set in one broadcast over their edges.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, fields, replace
from typing import ClassVar

import numpy as np

from . import rl as _rl
from .errors import NonFiniteAction, UnsupportedSize
from .geometry import EPS, ConvexPolygon, Point2, RegionSet
from .geometry import contains  # noqa: F401  (wrapped here by perfbench/tracing.py)
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
    """Curriculum knob: reward = base - weight * M * [s' in region], with M
    the task's barrier penalty and weight in [0, 1].

    The region is a RegionSet in the task plane, as the barrier is: the full
    barrier for a weight ramp, a growing subset of it for a barrier ramp.
    """

    region: RegionSet
    weight: float

    def __post_init__(self):
        if not (0.0 <= self.weight <= 1.0):
            raise ValueError(f"weight must be in [0, 1], got {self.weight}")


def relaxed_reward(env) -> RewardSpec:
    return RewardSpec(env.barrier, 0.0)


def full_reward(env) -> RewardSpec:
    return RewardSpec(env.barrier, 1.0)


@dataclass(frozen=True)
class StepResult:
    """One transition, for one state or elementwise over a (B, D) batch."""

    state: np.ndarray
    reward: float | np.ndarray
    terminal: bool | np.ndarray
    collided: bool | np.ndarray  # membership of the penalized set this step
    base: float | np.ndarray  # the reward before the barrier penalty


# car state vector layout: [x, y, heading, speed, ang_vel, t, flags...]; as
# columns, flags is (..., n_flags), and a column that is the same on every
# row (speed, time) may be a scalar
CarColumns = namedtuple("CarColumns", "x y heading speed ang_vel t flags")
_IX, _IY, _IH = 0, 1, 2


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

    def columns(self, state: np.ndarray) -> CarColumns:
        """The columns of state vectors; those of one state are scalars."""
        return CarColumns(*(state[..., k][()] for k in range(6)), state[..., 6:])

    def put_state(self, out: np.ndarray, s: CarColumns) -> None:
        """Write state columns into the state vectors `out`."""
        for k in range(6):
            out[..., k] = s[k]
        out[..., 6:] = s.flags

    def features(self, state: np.ndarray) -> np.ndarray:
        s = self.columns(state)
        return self._features(s, np.cos(s.heading), np.sin(s.heading))

    def _features(self, s: CarColumns, cos_h, sin_h) -> np.ndarray:
        """C-contiguous observation features of states given as columns."""
        if self.obs_mode == "position":
            return np.stack([s.x / FIELD_HALF, s.y / FIELD_HALF], axis=-1)
        out = np.empty(np.shape(s.x) + (7 + len(self.barrier_tops),))
        out[..., 0] = s.x / FIELD_HALF
        out[..., 1] = s.y / FIELD_HALF
        out[..., 2] = cos_h
        out[..., 3] = sin_h
        out[..., 4] = s.speed / self.v_set
        out[..., 5] = s.ang_vel / self.steer_max
        out[..., 6] = s.t / self.spec.horizon
        out[..., 7:] = s.flags
        return out

    def transition(self, s: CarColumns, action: np.ndarray, rows: "RowRewards"):
        """The batched transition kernel: (next columns, reward, base reward,
        terminal flag, penalized-set membership, next features) of every
        row, with `rows` giving each row's penalty and the edge table."""
        omega = np.minimum(np.maximum(action[..., 0], -1.0), 1.0) * self.steer_max
        heading = s.heading + omega * self.dt
        speed = s.speed + self.kp * (self.v_set - s.speed) * self.dt
        cos_h, sin_h = np.cos(heading), np.sin(heading)
        x = s.x + speed * cos_h * self.dt
        y = s.y + speed * sin_h * self.dt
        flags = s.flags
        if self.barrier_tops:
            flags = np.where((flags == 0.0) & (y[..., None] >= self.barrier_tops), 1.0, flags)
        nxt = CarColumns(x, y, heading, speed, omega, s.t + 1.0, flags)
        goal, member = rows.membership(x, y)

        t_norm = s.t / self.spec.horizon
        r = 0.0
        if self.c_side:
            side_sign = 1.0 if self.target_bits[0] == 1 else -1.0
            r = r + self.c_side * (1.0 - t_norm) * side_sign * np.sin(heading - math.pi / 2.0)
        if self.c_goal:
            dist = np.maximum(0.0, self.goal_y - y)
            r = r + -self.c_goal * t_norm * dist / 16.0
        if self.c_pot:
            d_prev = np.maximum(0.0, self.goal_y - s.y)
            d_next = np.maximum(0.0, self.goal_y - y)
            r = r + self.c_pot * (d_prev - d_next)
        if self.side_bonus:
            passed_left = x < 0.0
            for i in range(len(self.barrier_tops)):
                passed = (s.flags[..., i] == 0.0) & (flags[..., i] == 1.0)
                on_target = passed_left == (self.target_bits[i] == 1)
                r = r + np.where(passed & on_target, self.side_bonus, 0.0)
        if self.goal_bonus:
            r = r + np.where(goal, self.goal_bonus, 0.0)
        reward = r - np.where(member, rows.charge, 0.0)
        terminal = goal | (nxt.t >= self.spec.horizon)
        return nxt, reward, r, terminal, member, self._features(nxt, cos_h, sin_h)

    def task_point(self, state: np.ndarray) -> tuple:
        return state[..., _IX], state[..., _IY]

    def anchors(self) -> tuple[Point2, Point2]:
        gx0, gy0, gx1, gy1 = self.goal_poly.bbox()
        return Point2(*self.start), Point2(0.5 * (gx0 + gx1), 0.5 * (gy0 + gy1))


def _side_to_bit(side: str) -> int:
    if side not in ("left", "right"):
        raise ValueError(f"target side must be 'left' or 'right', got {side!r}")
    return 1 if side == "left" else 0


def nav1_barrier(width: float) -> RegionSet:
    """nav1's barrier of the given width (depth 2), centered on the origin;
    narrower ones are the regions of a barrier ramp's stages."""
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


# the one edge of an empty region: its inner side x <= -inf holds no point
_NO_PART = (np.array([np.inf]), np.zeros(1), np.zeros(1), np.full(1, -1.0))


@functools.lru_cache(maxsize=64)
def _edge_table(goal: ConvexPolygon, regions: tuple[RegionSet, ...]):
    """Edges (px, py, dx, dy) of the goal and every part of every region, the
    first edge of each polygon, and the first polygon of each set (or None)."""
    sets = [[goal._edges]] + [[p._edges for p in r.parts] or [_NO_PART] for r in regions]
    polys = [e for polygons in sets for e in polygons]
    edges = tuple(np.concatenate(c) for c in zip(*polys))
    first_edge = np.cumsum([0] + [len(e[0]) for e in polys[:-1]])
    first_part = np.cumsum([0] + [len(p) for p in sets[:-1]]) if len(polys) > len(sets) else None
    return edges, first_edge, first_part


@dataclass(frozen=True)
class RowRewards:
    """The reward spec of each row of a lockstep batch, with the edge table
    that tests the goal and every distinct penalized set in one broadcast;
    row b is charged charge[b] inside its own penalized set."""

    pick: tuple | None  # (row, set) index of each row's own set; None with one set
    charge: float | np.ndarray
    edges: tuple[np.ndarray, ...]  # px, py, dx, dy: the goal's edges, then every part's
    first_edge: np.ndarray  # of the goal and of each part
    first_part: np.ndarray | None  # of the goal and of each region; None if all parts are single

    @staticmethod
    def of(env, specs) -> "RowRewards":
        """The RowRewards of one RewardSpec for every row, or of one spec per row."""
        one = isinstance(specs, RewardSpec)
        index: dict[RegionSet, int] = {}
        group = [index.setdefault(s.region, len(index)) for s in ([specs] if one else specs)]
        m = env.barrier.penalty
        charge = specs.weight * m if one else np.array([s.weight * m for s in specs])
        pick = (np.arange(len(group)), 1 + np.array(group)) if len(index) > 1 else None
        return RowRewards(pick, charge, *_edge_table(env.goal_poly, tuple(index)))

    def membership(self, x, y):
        """(goal membership, each row's penalized-set membership) of (x, y)."""
        px, py, dx, dy = self.edges
        inside = dx * (y[..., None] - py) - dy * (x[..., None] - px) >= -EPS
        hit = np.logical_and.reduceat(inside, self.first_edge, axis=-1)
        if self.first_part is not None:
            hit = np.logical_or.reduceat(hit, self.first_part, axis=-1)
        if self.pick is None:
            return hit[..., 0], hit[..., 1]
        return hit[..., 0], hit[self.pick]


def step(env, state: np.ndarray, action, reward_spec: RewardSpec) -> StepResult:
    """One transition of one state, or of each row of a (B, D) state batch,
    under one reward spec.  The kinematic update never depends on it."""
    a = np.asarray(action, dtype=float).reshape(np.shape(state)[:-1] + (-1,))
    if not np.isfinite(a).all():
        raise NonFiniteAction(f"non-finite action {a}")
    nxt, reward, base, terminal, member, _ = env.transition(
        env.columns(state), a, RowRewards.of(env, reward_spec)
    )
    out = np.empty(np.shape(state))
    env.put_state(out, nxt)
    return StepResult(out, reward, terminal, member, base)


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

    Every episode steps until it terminates, on its own; rows past their end
    keep stepping until every episode has ended, and their entries are then
    zeroed.  `policy` is one policy shared by all episodes, or a stacked one
    (theta of shape (B, theta_size), log_std shared or (B, action_dim))
    whose row b drives episode b.  `reward_spec` is one RewardSpec for all
    episodes, or a sequence of B specs, one per episode.  The
    batch-size-independent forward pass gives each episode the same bits at
    any B, so an episode's results depend only on its own row's parameters,
    its own reward spec and its own tape.
    """
    n, horizon = noise.shape[0], env.spec.horizon
    if policy.theta.ndim == 2 and policy.theta.shape[0] != n:
        raise ValueError(f"{policy.theta.shape[0]} policy rows for {n} noise tapes")
    if not isinstance(reward_spec, RewardSpec) and len(reward_spec) != n:
        raise ValueError(f"{len(reward_spec)} reward specs for {n} noise tapes")
    rows = RowRewards.of(env, reward_spec)
    mean = _rl.mean_net(policy)
    std = np.exp(policy.log_std)
    states = np.zeros((n, horizon + 1, len(env.initial_state())))
    states[:, 0] = env.initial_state()
    # the initial state's scalar columns broadcast; speed and time stay scalars
    s = env.columns(env.initial_state())
    o = env.features(states[:, 0])
    obs = np.zeros((n, horizon, env.spec.state_dim))
    actions = np.zeros((n, horizon, env.spec.action_dim))
    rewards = np.zeros((n, horizon))
    base = np.zeros((n, horizon))
    member = np.zeros((n, horizon), dtype=bool)
    ends = np.zeros((n, horizon), dtype=bool)
    ended = np.zeros(n, dtype=bool)
    for t in range(horizon):
        if ended.all():
            break
        a = mean(o) + std * noise[:, t]
        obs[:, t] = o
        actions[:, t] = a
        s, rewards[:, t], base[:, t], ends[:, t], member[:, t], o = env.transition(s, a, rows)
        env.put_state(states[:, t + 1], s)
        ended |= ends[:, t]
    lengths = ends.argmax(axis=1) + 1
    after = np.arange(horizon) >= lengths[:, None]
    for arr in (obs, actions, rewards, base, member, states[:, 1:]):
        arr[after] = 0
    bad = ~np.isfinite(actions).all(axis=-1)
    if bad.any():
        b, t = np.argwhere(bad)[0]
        raise NonFiniteAction(f"non-finite action {actions[b, t]} in episode {b} at step {t}")
    # discount**t as the running product 1, d, d*d, ...; returns summed in step order
    gamma = np.cumprod(np.r_[1.0, np.full(horizon - 1, env.spec.discount)])
    returns = np.add.accumulate(rewards * gamma, axis=1)[:, -1]
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
