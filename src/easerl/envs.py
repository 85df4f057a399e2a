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
through one batched kernel on the state's columns, in two halves:
`CarEnv.move`, the dynamics, moves x and y as one (2, B) array, and
`CarEnv.outcome` gives the reward, base reward, terminal flag and
penalized-set membership, testing the goal and every penalized set in one
pass over their edges (`geometry.EdgeTable`, the one statement of the
closed-set rule).  The reward never feeds back, so the engine steps with
`move` alone and runs `outcome` once per call over blocks of the steps
run.  `move` writes each step's columns straight into the
engine's time-major buffers, which the batch keeps, with the policy's
hidden layer for the update; speed and time are the same on every row and
are computed once per task.  A batch assembles its state vectors only when
they are read.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import namedtuple
from dataclasses import dataclass, fields, replace
from typing import ClassVar

import numpy as np

from . import rl as _rl
from .errors import NonFiniteAction, UnsupportedSize
from .geometry import ConvexPolygon, EdgeTable, Point2, RegionSet, edge_table
from .geometry import contains  # noqa: F401  (wrapped here by perfbench/tracing.py)
from .homotopy import Trajectory
from .seeding import derive_seed, pcg64_states

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
    """One transition, for one state or elementwise over a batch of them."""

    state: np.ndarray
    reward: float | np.ndarray
    terminal: bool | np.ndarray
    collided: bool | np.ndarray  # membership of the penalized set this step
    base: float | np.ndarray  # the reward before the barrier penalty


# car state vector layout: [x, y, heading, speed, ang_vel, t, flags...].  As
# columns of a batch of B states, xy is (2, B), flags (B, n_flags) and the
# rest (B,); speed and time, the same on every row of a lockstep batch (the
# speed controller ignores the action), are scalars there.  A batch with
# more leading axes, such as a RolloutBatch's (B, horizon + 1), has columns
# the same way: xy (2, B, horizon + 1), and so on.
CarColumns = namedtuple("CarColumns", "xy heading speed ang_vel t flags")
_IX, _IY, _IH = 0, 1, 2


def _pair_axis(a: np.ndarray, source: int, destination: int) -> np.ndarray:
    """np.moveaxis(a, source, destination) for the length-2 axis of xy or a
    direction; with at most one other axis, the far cheaper transpose."""
    return a.T if a.ndim <= 2 else np.moveaxis(a, source, destination)


def _columns(state: np.ndarray) -> CarColumns:
    """The columns of one state vector (scalars, and xy of shape (2,)) or of
    a batch of them with any leading axes (xy of shape (2, ...))."""
    xy = _pair_axis(state[..., :2], -1, 0)
    return CarColumns(xy, *(state[..., k][()] for k in range(2, 6)), state[..., 6:])


def _put_state(out: np.ndarray, s: CarColumns) -> None:
    """Write state columns into the state vectors `out`."""
    out[..., 0], out[..., 1] = s.xy
    for k, column in enumerate(s[1:5], start=2):
        out[..., k] = column
    out[..., 6:] = s.flags


@dataclass(frozen=True)
class CarEnv:
    """Unicycle car in the 20x20 field with a rectangular barrier union.

    `features` takes one state vector or a batch with any leading axes and
    works elementwise over the batch; `move` and `outcome` work on the
    columns of one state or of a batch (see CarColumns).
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

    def clock(self) -> tuple[np.ndarray, np.ndarray]:
        """(speed, time) at every step 0..horizon of an episode: the same on
        every row, since the speed controller ignores the action.  Computed
        once per task; the arrays are shared and read-only."""
        return _clock(self)

    def _tick(self, speed, t):
        """(speed, time) one step on."""
        return speed + self.kp * (self.v_set - speed) * self.dt, t + 1.0

    def features(self, state: np.ndarray) -> np.ndarray:
        s = _columns(state)
        out = np.empty(np.shape(state)[:-1] + (self.spec.state_dim,))
        self._row_features(out, s, np.stack([np.cos(s.heading), np.sin(s.heading)]))
        self._clock_features(out, s.speed, s.t)
        return out

    def _row_features(self, out: np.ndarray, s: CarColumns, direction: np.ndarray) -> None:
        """Write the features that differ from row to row: all but speed and
        time.  `direction` is (cos, sin) of the heading, shaped like xy."""
        np.divide(_pair_axis(s.xy, 0, -1), FIELD_HALF, out=out[..., :2])
        if self.obs_mode == "position":
            return
        out[..., 2:4] = _pair_axis(direction, 0, -1)
        np.divide(s.ang_vel, self.steer_max, out=out[..., 5])
        if self.barrier_tops:
            out[..., 7:] = s.flags

    def _clock_features(self, out: np.ndarray, speed, t) -> None:
        """Write the speed and time features (none in position mode)."""
        if self.obs_mode == "full":
            out[..., 4] = speed / self.v_set
            out[..., 6] = t / self.spec.horizon

    def move(self, s: CarColumns, action: np.ndarray, out=None):
        """The dynamics: (next columns, direction) of every row, where the
        direction (cos, sin) of the next heading, shaped like xy, is what
        `_row_features` reads.  Everything the next step reads comes from
        here; the reward never feeds back.  `out` is a (columns, direction)
        pair of buffers that receives the next xy, heading, angular velocity,
        flags and direction (its speed and t are unused); without it they
        are allocated."""
        clipped = np.minimum(np.maximum(action[..., 0], -1.0), 1.0)
        if out is None:
            shape = np.broadcast_shapes(np.shape(s.heading), clipped.shape)
            out = (CarColumns(np.empty((2,) + shape), np.empty(shape), None, np.empty(shape), None,
                              np.empty(shape + np.shape(s.flags)[-1:])), np.empty((2,) + shape))
        nxt, direction = out
        omega = np.multiply(clipped, self.steer_max, out=nxt.ang_vel)
        heading = np.add(s.heading, omega * self.dt, out=nxt.heading)
        speed, t = self._tick(s.speed, s.t)
        np.cos(heading, out=direction[0, ...])
        np.sin(heading, out=direction[1, ...])
        xy = np.multiply(direction, speed, out=nxt.xy)
        xy *= self.dt
        xy += s.xy
        flags = s.flags
        if self.barrier_tops:
            flags = nxt.flags
            np.copyto(flags, s.flags)
            np.copyto(flags, 1.0, where=(s.flags == 0.0) & (xy[1][..., None] >= self.barrier_tops))
        return CarColumns(xy, heading, speed, omega, t, flags), direction

    def outcome(self, prev: CarColumns, nxt: CarColumns, rows: "RowRewards"):
        """(reward, base reward, terminal flag, penalized-set membership) of
        the transitions prev -> nxt, with `rows` giving each row's penalty
        and the edge table.  Elementwise over any leading axes, so a
        (steps, B) block of transitions gives (steps, B) results."""
        goal, member = rows.membership(nxt.xy)
        y = nxt.xy[1]
        t_norm = prev.t / self.spec.horizon
        r = 0.0
        if self.c_side:
            side_sign = 1.0 if self.target_bits[0] == 1 else -1.0
            r = r + self.c_side * (1.0 - t_norm) * side_sign * np.sin(nxt.heading - math.pi / 2.0)
        if self.c_goal:
            dist = np.maximum(0.0, self.goal_y - y)
            r = r + -self.c_goal * t_norm * dist / 16.0
        if self.c_pot:
            d_prev = np.maximum(0.0, self.goal_y - prev.xy[1])
            d_next = np.maximum(0.0, self.goal_y - y)
            r = r + self.c_pot * (d_prev - d_next)
        if self.side_bonus:
            passed_left = nxt.xy[0] < 0.0
            for i in range(len(self.barrier_tops)):
                passed = (prev.flags[..., i] == 0.0) & (nxt.flags[..., i] == 1.0)
                on_target = passed_left == (self.target_bits[i] == 1)
                r = r + np.where(passed & on_target, self.side_bonus, 0.0)
        if self.goal_bonus:
            r = r + np.where(goal, self.goal_bonus, 0.0)
        reward = r - np.where(member, rows.charge, 0.0)
        terminal = goal | (nxt.t >= self.spec.horizon)
        return reward, r, terminal, member

    def task_point(self, state: np.ndarray) -> tuple:
        return state[..., _IX], state[..., _IY]

    def anchors(self) -> tuple[Point2, Point2]:
        gx0, gy0, gx1, gy1 = self.goal_poly.bbox()
        return Point2(*self.start), Point2(0.5 * (gx0 + gx1), 0.5 * (gy0 + gy1))


@functools.lru_cache(maxsize=64)
def _clock(env: CarEnv) -> tuple[np.ndarray, np.ndarray]:
    """`CarEnv.clock`, stepped once per task."""
    s = _columns(env.initial_state())
    ticks = [(float(s.speed), float(s.t))]
    for _ in range(env.spec.horizon):
        ticks.append(env._tick(*ticks[-1]))
    table = np.array(ticks)
    table.flags.writeable = False
    speed, t = table.T
    return speed, t


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


@dataclass(frozen=True)
class RowRewards:
    """The reward spec of each row of a lockstep batch, with the edge table
    that tests the goal and every distinct penalized set in one pass; row b
    is charged charge[b] inside its own penalized set."""

    pick: tuple | None  # (row, set) index of each row's own set; None with one set
    charge: float | np.ndarray
    edges: EdgeTable  # sets: the goal, then each distinct penalized region
    goal: EdgeTable  # the goal alone

    @staticmethod
    def of(env, specs) -> "RowRewards":
        """The RowRewards of one RewardSpec for every row, or of one spec per row."""
        one = isinstance(specs, RewardSpec)
        index: dict[RegionSet, int] = {}
        group = [index.setdefault(s.region, len(index)) for s in ([specs] if one else specs)]
        m = env.barrier.penalty
        charge = specs.weight * m if one else np.array([s.weight * m for s in specs])
        pick = (np.arange(len(group)), 1 + np.array(group)) if len(index) > 1 else None
        goal = (env.goal_poly,)
        return RowRewards(pick, charge, edge_table((goal,) + tuple(r.parts for r in index)),
                          edge_table((goal,)))

    def membership(self, xy):
        """(goal membership, each row's penalized-set membership) of the
        points xy: (2, B), one point (2,), or (2, ..., B) with leading axes,
        such as a time axis, before the row axis."""
        hit = self.edges.membership(xy)  # (set, ..., B)
        if self.pick is None:
            return hit[0], hit[1]
        return hit[0], np.moveaxis(hit, 0, -1)[(Ellipsis,) + self.pick]

    def in_goal(self, xy):
        """The goal membership of `membership`, from the goal's edges alone."""
        return self.goal.membership(xy)[0]


def step(env, state: np.ndarray, action, reward_spec: RewardSpec) -> StepResult:
    """One transition of one state, or of each state of a batch with any
    leading axes, under one reward spec.  The kinematic update never depends on it."""
    a = np.asarray(action, dtype=float).reshape(np.shape(state)[:-1] + (-1,))
    if not np.isfinite(a).all():
        raise NonFiniteAction(f"non-finite action {a}")
    s = _columns(state)
    nxt, _ = env.move(s, a)
    reward, base, terminal, member = env.outcome(s, nxt, RowRewards.of(env, reward_spec))
    out = np.empty(np.shape(state))
    _put_state(out, nxt)
    return StepResult(out, reward, terminal, member, base)


@functools.cache
def _tape_generator() -> np.random.Generator:
    """The one generator that draws every tape, re-seeded before each:
    making a generator costs as much as seeding several tapes.  Made on
    first use, so importing the package does not import `numpy.random`."""
    return np.random.Generator(np.random.PCG64(0))


# keeps each call's seeding and drawing together when threads share the generator
_TAPE_LOCK = threading.Lock()


def noise_tapes(env, seeds) -> np.ndarray:
    """(B, horizon, action_dim) Gaussian tapes, one per episode seed.

    A tape is keyed by its seed alone, so identical seeds give identical
    noise regardless of policy parameters or of the batch around them.
    Tape b is `rng_for(seeds[b], "noise").standard_normal(...)` bit for bit,
    but the call seeds every tape's stream in one pass (`pcg64_states`).
    """
    shape = (env.spec.horizon, env.spec.action_dim)
    tapes = np.empty((len(seeds),) + shape)
    states = pcg64_states([derive_seed(s, "noise") for s in seeds])
    gen = _tape_generator()
    with _TAPE_LOCK:
        for tape, (state, inc) in zip(tapes, states):
            gen.bit_generator.state = {"bit_generator": "PCG64",
                                       "state": {"state": state, "inc": inc},
                                       "has_uint32": 0, "uinteger": 0}
            gen.standard_normal(out=tape)
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
    """B episodes stepped in lockstep; every array is indexed by episode first.

    Episode b owns the first lengths[b] steps of each per-step array and the
    first lengths[b] + 1 entries of each state column; entries after its end
    are zero, but for speed and t, which are the same on every row.  The
    state vectors are assembled from the columns when read.
    """

    obs: np.ndarray  # (B, horizon, obs_dim)
    hidden: np.ndarray  # (B, horizon, arch.hidden_width()): the policy's hidden layer
    actions: np.ndarray  # (B, horizon, action_dim)
    rewards: np.ndarray  # (B, horizon)
    base: np.ndarray  # (B, horizon) rewards before the barrier penalty
    member: np.ndarray  # (B, horizon) membership of the penalized set
    lengths: np.ndarray  # (B,)
    returns: np.ndarray  # (B,) discounted returns
    # the state columns (see CarColumns) at steps 0..horizon
    xy: np.ndarray  # (B, horizon + 1, 2)
    heading: np.ndarray  # (B, horizon + 1), and so on
    speed: np.ndarray
    ang_vel: np.ndarray
    t: np.ndarray
    flags: np.ndarray  # (B, horizon + 1, n_flags)

    @property
    def collided(self) -> np.ndarray:
        return self.member.any(axis=1)

    @property
    def states(self) -> np.ndarray:
        """(B, horizon + 1, state vector size) state vectors."""
        out = self._state_vectors(np.s_[:, :])
        out[:, 1:][np.arange(out.shape[1] - 1) >= self.lengths[:, None]] = 0.0
        return out

    def trajectory(self, env, b: int) -> Trajectory:
        raw = self._state_vectors(np.s_[b, : self.lengths[b] + 1])
        return Trajectory(np.stack(env.task_point(raw), axis=-1), raw)

    def _state_vectors(self, index) -> np.ndarray:
        """The state vectors at the (episode, step) entries `index` picks."""
        xy = self.xy[index]
        out = np.empty(xy.shape[:-1] + (6 + self.flags.shape[-1],))
        _put_state(out, CarColumns(
            np.moveaxis(xy, -1, 0), self.heading[index], self.speed[index], self.ang_vel[index],
            self.t[index], self.flags[index],
        ))
        return out

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

    def rows(self, lo: int, hi: int) -> "RolloutBatch":
        """Episodes lo..hi-1, as views of this batch's arrays."""
        return RolloutBatch(*(getattr(self, f.name)[lo:hi] for f in fields(self)))


# (step, row) entries of a post-pass block: bounds the block's temporaries,
# which grow with its steps, rows and edges
_OUTCOME_ENTRIES = 1024
# far above the rounding of a position, far below a step's length
_REACH_MARGIN = 1e-6


def _first_goal_step(env, speeds: np.ndarray) -> int:
    """The first step t of an episode after which a car could be in the
    goal, or horizon if none.  However it steers, a car covers at most
    speeds[t + 1] * dt in step t, so it cannot be in the goal before that
    distance, summed, reaches the gap from the start to the goal's bounding
    box."""
    x0, y0, x1, y1 = env.goal_poly.bbox()
    sx, sy = env.start
    gap = math.hypot(max(x0 - sx, 0.0, sx - x1), max(y0 - sy, 0.0, sy - y1))
    covered = np.cumsum(speeds[1:] * env.dt)
    return int(np.searchsorted(covered, gap - _REACH_MARGIN))


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

    Each step runs only what feeds back: the policy's action, the dynamics
    (`CarEnv.move`), the next features and the column writes.  The reward
    never feeds back, so rewards, base rewards, penalized-set membership and
    terminal flags are computed after the loop by `CarEnv.outcome`, over
    blocks of the steps run; the terminal flags alone give the lengths.  The
    loop tests the goal only to stop early, once every episode has reached
    it, and only from the first step at which a car could be there.

    The buffers are time-major, (horizon, B, ...), so that each step writes
    one contiguous block and the policy reads a contiguous obs[t]; the batch
    holds transposed views of them.  Speed and time, the same on every row,
    and their features are computed once per call, as is each row's noise
    scaled by its std.
    """
    n, horizon = noise.shape[0], env.spec.horizon
    if policy.theta.ndim == 2 and policy.theta.shape[0] != n:
        raise ValueError(f"{policy.theta.shape[0]} policy rows for {n} noise tapes")
    if not isinstance(reward_spec, RewardSpec) and len(reward_spec) != n:
        raise ValueError(f"{len(reward_spec)} reward specs for {n} noise tapes")
    rows = RowRewards.of(env, reward_spec)
    mean = _rl.mean_net(policy)
    scaled_noise = np.multiply(np.exp(policy.log_std), noise.transpose(1, 0, 2), order="C")
    speeds, times = env.clock()
    start = env.initial_state()
    obs = np.zeros((horizon + 1, n, env.spec.state_dim))
    obs[0] = env.features(start)
    env._clock_features(obs, speeds[:, None], times[:, None])
    hidden = np.zeros((horizon, n, policy.arch.hidden_width()))
    actions = np.zeros((horizon, n, env.spec.action_dim))
    # the initial state, one row that broadcasts against the batch
    s = _columns(start[None])._replace(speed=float(speeds[0]), t=float(times[0]))
    xy = np.zeros((horizon + 1, 2, n))
    heading = np.zeros((horizon + 1, n))
    ang_vel = np.zeros((horizon + 1, n))
    flags = np.zeros((horizon + 1, n, len(env.barrier_tops)))
    xy[0], heading[0], ang_vel[0], flags[0] = s.xy, s.heading, s.ang_vel, s.flags
    direction = np.empty((2, n))
    first_goal = _first_goal_step(env, speeds)
    ended = np.zeros(n, dtype=bool)
    steps = horizon
    for t in range(horizon):
        np.add(mean(obs[t], hidden[t]), scaled_noise[t], out=actions[t])
        out = CarColumns(xy[t + 1], heading[t + 1], None, ang_vel[t + 1], None, flags[t + 1])
        s, _ = env.move(s, actions[t], (out, direction))
        env._row_features(obs[t + 1], s, direction)
        if t >= first_goal:
            ended |= rows.in_goal(s.xy)
            if ended.all():
                steps = t + 1
                break

    def block(lo: int, hi: int) -> CarColumns:
        """The columns at steps lo..hi-1, shaped (hi - lo, B)."""
        return CarColumns(xy[lo:hi].transpose(1, 0, 2), heading[lo:hi], speeds[lo:hi, None],
                          ang_vel[lo:hi], times[lo:hi, None], flags[lo:hi])

    rewards = np.zeros((horizon, n))
    base = np.zeros((horizon, n))
    member = np.zeros((horizon, n), dtype=bool)
    ends = np.zeros((steps, n), dtype=bool)
    block_steps = max(1, _OUTCOME_ENTRIES // max(n, 1))
    for lo in range(0, steps, block_steps):
        hi = min(lo + block_steps, steps)
        rewards[lo:hi], base[lo:hi], ends[lo:hi], member[lo:hi] = env.outcome(
            block(lo, hi), block(lo + 1, hi + 1), rows
        )
    lengths = ends.argmax(axis=0) + 1
    per_step = tuple(
        a.swapaxes(0, 1) for a in (obs[:horizon], hidden, actions, rewards, base, member)
    )
    columns = (xy.transpose(2, 0, 1), heading.T, ang_vel.T, flags.transpose(1, 0, 2))
    after = np.arange(horizon) >= lengths[:, None]
    for arr in per_step + tuple(c[:, 1:] for c in columns):
        arr[after] = 0
    bad = ~np.isfinite(actions).all(axis=-1).T
    if bad.any():
        b, t = np.argwhere(bad)[0]
        raise NonFiniteAction(f"non-finite action {actions[t, b]} in episode {b} at step {t}")
    # discount**t as the running product 1, d, d*d, ...; returns summed in step order
    gamma = np.cumprod(np.r_[1.0, np.full(horizon - 1, env.spec.discount)])
    returns = np.add.accumulate(rewards * gamma[:, None], axis=0)[-1]
    clock = [np.broadcast_to(c, (n, horizon + 1)) for c in (speeds, times)]
    return RolloutBatch(
        *per_step, lengths, returns, columns[0], columns[1], clock[0], columns[2], clock[1],
        columns[3],
    )


def rollout_record(env, policy, reward_spec: RewardSpec, seed: int) -> RolloutRecord:
    """Simulate one episode; all stochasticity comes from the seed.

    The episode's Gaussian tape is keyed by the seed alone, so identical
    seeds give identical noise regardless of policy parameters.
    """
    batch = rollout_batch(env, policy, reward_spec, noise_tapes(env, [seed]))
    return batch.record(env, 0)


def mean_rollout(env, policy) -> Trajectory:
    """Noise-free rollout (the policy's mean action at every step).  The
    path depends on the policy alone: a reward spec changes no transition."""
    return drive(env, mean_trajectory(env, policy))


def mean_trajectory(env, policy):
    """`mean_rollout` as a request generator (see `serve`)."""
    zero = np.zeros((1, env.spec.horizon, env.spec.action_dim))
    batch = yield RolloutRequest(policy, relaxed_reward(env), zero)
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
    concatenated.  Each run is sent a view of its own rows.  An episode's
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
            batch = rollout_batch(env, *_merge_requests(requests))
            bounds = np.cumsum([0] + [len(r.noise) for r in requests])
            pieces = [batch.rows(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
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
