"""Relax-then-curriculum transfer across homotopy classes.

The transfer recipe: train a relaxed policy (barrier penalty off) from the
source policy, then re-introduce the penalty along a validated schedule,
warm-starting every stage from the previous one.  A schedule is the tuple of
its stages' RewardSpecs, whose penalty fields w * M * [s in S] grow stage by
stage up to the full barrier at w = 1: `ease_reward` ramps the weight w on
the full barrier, `ease_barrier` grows a nested family of barrier subsets S
at w = 1.  The starting subset can be found automatically by bisecting the
barrier until a piece separates the source and relaxed trajectories, then
inflating it until it touches the relaxed trajectory.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

# the transfer steps call the request-generator forms (`training`,
# `evaluation`, `mean_trajectory`); the plain `train`, `evaluate_detail` and
# `mean_rollout` stay names of this module because perfbench/tracing.py wraps
# them here
from .envs import (  # noqa: F401
    RewardSpec,
    drive,
    full_reward,
    mean_rollout,
    mean_trajectory,
    relaxed_reward,
)
from .errors import BudgetExhausted, PreconditionViolated
from .geometry import (
    ConvexPolygon,
    Point2,
    RegionSet,
    bisect,
    contains,
    dilate,
    intersect_clip,
)
from .homotopy import Trajectory, collides, divides
from .rl import (  # noqa: F401
    ConvergenceBand,
    PolicyParams,
    TrainConfig,
    TrainReport,
    evaluate_detail,
    evaluation,
    evaluation_request,
    init_policy,
    train,
    training,
)
from .seeding import derive_seed

# probe points per axis of validate_schedule's grid, and of the grid that
# sets auto_barrier_schedule's radii
PROBE_N = 200
AUTO_PROBE_N = 64
# training steps between the crossing checks of relax_until_crossing
RELAX_CHUNK_STEPS = 8192
# stages of an automatic ease_barrier schedule
AUTO_STAGES = 3
# find_sb1's budgets: halvings of the barrier, then inflations of the chosen
# half by INFLATE_RADIUS, clipped to the barrier
MAX_HALVINGS = 12
MAX_INFLATIONS = 20
INFLATE_RADIUS = 0.25
# episodes of the evaluation that scores a run's final policy
FINAL_EVAL_EPISODES = 32
# weight of the l2sp baseline's pull towards the source parameters
L2SP_COEFF = 0.01

CURRICULA = ("ease_reward", "ease_barrier")
BASELINES = ("naive", "l2sp", "random")
METHODS = CURRICULA + BASELINES  # report order


def method_rank(method: str) -> tuple:
    """Sort key: report order, then unknown methods by name."""
    return (METHODS.index(method) if method in METHODS else len(METHODS), method)


def stage_labels(method: str, n_stages: int) -> list[str]:
    """Labels of a run's stages in order: relax then stage-k for a curriculum,
    one final stage for a baseline."""
    if method in CURRICULA:
        return ["relax"] + [f"stage-{k}" for k in range(n_stages - 1)]
    return ["final"]


def _region_probe_points(barrier: RegionSet, n: int) -> np.ndarray:
    """(n * n, 2) grid over the barrier's padded bounding box, x-major."""
    x0, y0, x1, y1 = barrier.bbox()
    mx = 0.05 * max(x1 - x0, y1 - y0, 1.0)
    xs = np.linspace(x0 - mx, x1 + mx, n)
    ys = np.linspace(y0 - mx, y1 + mx, n)
    return np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)


def validate_schedule(schedule: tuple[RewardSpec, ...], barrier: RegionSet) -> None:
    """Check the schedule's defining inequalities before any training runs
    (`_check_schedule`).  A schedule passes once per barrier: a grid checks
    it when it builds it, and each run again finds it checked.  A failing
    schedule raises every time."""
    _check_schedule(tuple(schedule), barrier)


@functools.lru_cache(maxsize=64)
def _check_schedule(schedule: tuple[RewardSpec, ...], barrier: RegionSet) -> None:
    """Check the schedule's defining inequalities.

    Stage k charges the penalty field w_k * M * [p in S_k].  Every weight must
    be in (0, 1]; each stage's field must be pointwise >= its predecessor's and
    differ from it; the last stage must be the full barrier at weight 1.  The
    fields are compared on a probe grid over the barrier's bounding box.  Each
    axis is padded and sampled on its own extent, so a thin barrier (a 6.4 x
    0.4 rectangle, say) is probed as finely across as along.  A field that
    falls is reported as a subset that leaves the next one or, inside nested
    subsets, as a weight that falls.
    """
    weights = tuple(s.weight for s in schedule)
    ramp = f"alphas must satisfy 0 < a_1 < ... < a_K = 1, got {weights}"
    if not schedule or min(weights) <= 0.0:
        raise PreconditionViolated(ramp)
    x0, y0, x1, y1 = barrier.bbox()
    xs, ys = (
        np.linspace(lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo), PROBE_N)
        for lo, hi in ((x0, x1), (y0, y1))
    )
    pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)

    inside = {r: contains(r, pts) for r in {s.region for s in schedule} | {barrier}}
    masks = [inside[s.region] for s in schedule]
    fields = [s.weight * m for s, m in zip(schedule, masks)]
    for k in range(len(masks) - 1):
        if np.any(masks[k] & ~masks[k + 1]):
            raise PreconditionViolated(f"subset {k} is not contained in subset {k + 1}")
    if any(np.any(f1 < f0) for f0, f1 in zip(fields, fields[1:])):
        raise PreconditionViolated(ramp)
    if weights[-1] != 1.0:
        raise PreconditionViolated("final alpha must equal 1")
    if np.any(masks[-1] != inside[barrier]):
        raise PreconditionViolated("final subset must equal the full barrier")
    for k in range(len(fields) - 1):
        if np.array_equal(fields[k], fields[k + 1]):
            raise PreconditionViolated(f"stage {k + 1} charges the same penalty as stage {k}")


@dataclass(frozen=True)
class FindSb1Result:
    region: RegionSet
    halvings: int
    inflations: int


def find_sb1(
    xi_s: Trajectory,
    xi_relax: Trajectory,
    barrier: RegionSet,
    anchor_start: Point2,
    anchor_goal: Point2,
) -> FindSb1Result:
    """Find a starting barrier subset that separates the two trajectories.

    Halve the barrier up to MAX_HALVINGS times, at each cut preferring a half
    whose crossing parities already divide xi_s from xi_relax (whether or not
    xi_relax touches it), otherwise descending into a half xi_relax passes
    through.  Afterwards inflate the chosen subset inside the barrier, up to
    MAX_INFLATIONS times, until it touches xi_relax.  Postconditions (divides
    and touches) are asserted on every return.
    """
    if len(barrier.parts) != 1:
        raise PreconditionViolated("subset search needs a single connected barrier part")
    if collides(xi_s, barrier):
        raise PreconditionViolated("source trajectory must avoid the barrier")
    if not collides(xi_relax, barrier):
        raise PreconditionViolated("relaxed trajectory must pass through the barrier")

    def as_region(p: ConvexPolygon) -> RegionSet:
        return RegionSet((p,), barrier.penalty)

    def f1(region: RegionSet) -> bool:
        return collides(xi_relax, region)

    def f2(region: RegionSet) -> bool:
        return divides(xi_s, xi_relax, region, anchor_start, anchor_goal)

    part = barrier.parts[0]
    cur = part
    halvings = 0
    found = False
    while halvings < MAX_HALVINGS:
        h1, h2 = bisect(cur)
        halvings += 1
        # try the divide test on both halves before descending: a dividing
        # half may sit entirely between the trajectories (inflation brings it
        # into contact later), and descending past it loses it for good
        if f2(as_region(h1)):
            cur = h1
            found = True
            break
        if f2(as_region(h2)):
            cur = h2
            found = True
            break
        if f1(as_region(h1)):
            cur = h1
            continue
        if f1(as_region(h2)):
            cur = h2
            continue
        raise BudgetExhausted(
            "neither half touches the relaxed trajectory nor divides the pair"
        )
    if not found:
        raise BudgetExhausted(f"no dividing subset within {MAX_HALVINGS} halvings")

    inflations = 0
    while not f1(as_region(cur)):
        if inflations >= MAX_INFLATIONS:
            raise BudgetExhausted(
                f"subset still does not touch the relaxed trajectory after "
                f"{MAX_INFLATIONS} inflations"
            )
        grown = intersect_clip(dilate(as_region(cur), INFLATE_RADIUS), part)
        cur = grown.parts[0]
        inflations += 1

    result = as_region(cur)
    assert f2(result), "returned subset must divide the trajectories"
    assert f1(result), "returned subset must touch the relaxed trajectory"
    return FindSb1Result(result, halvings, inflations)


def auto_barrier_schedule(sb1: RegionSet, barrier: RegionSet) -> tuple[RewardSpec, ...]:
    """AUTO_STAGES nested subsets from sb1 to the full barrier by dilate-and-clip."""
    part = barrier.parts[0]
    pts = _region_probe_points(barrier, AUTO_PROBE_N)
    reach = sb1.parts[0].farthest_distance(pts[part.contains_point(pts[:, 0], pts[:, 1])])
    subsets: list[RegionSet] = []
    for k in range(1, AUTO_STAGES):
        r = reach * k / AUTO_STAGES
        subsets.append(intersect_clip(dilate(sb1, r), part) if r > 0 else sb1)
    subsets.append(barrier)
    return tuple(RewardSpec(s, 1.0) for s in subsets)


@dataclass(frozen=True)
class StageBudgets:
    """Each stage's share of a run budget: budget/(K+1) per stage (relax
    included), the division remainder to the final stage.

    A share is not a cap: `run_curriculum` lets each curriculum stage also
    spend what earlier stages, the relax stage included, left unspent.
    """

    relax: int
    stages: tuple[int, ...]

    @staticmethod
    def split(budget: int, n_stages: int) -> "StageBudgets":
        chunks = n_stages + 1
        base = budget // chunks
        rem = budget - base * chunks
        stage_list = [base] * n_stages
        if n_stages:
            stage_list[-1] += rem
        return StageBudgets(base, tuple(stage_list))


@dataclass
class TransferJob:
    """Everything one transfer run needs besides the method name.

    `training` holds the training settings (learning rate, batch size and
    evaluation cadence); each stage replaces its seed, budget, band and
    keep_best through `train_cfg`.
    """

    env: object
    source: PolicyParams | None
    seed: int
    budget: int
    schedule: tuple[RewardSpec, ...] | None  # the stages' specs; None: found by ease_barrier
    relax_band: ConvergenceBand
    stage_band: ConvergenceBand
    final_band: ConvergenceBand
    training: TrainConfig

    def train_cfg(
        self, budget: int, band: ConvergenceBand, *labels, keep_best: bool = False
    ) -> TrainConfig:
        """The stage's config, seeded by derive_seed(self.seed, *labels)."""
        return replace(
            self.training,
            seed=derive_seed(self.seed, *labels),
            max_interaction_steps=budget,
            convergence=band,
            keep_best=keep_best,
        )


@dataclass
class TransferReport:
    method: str
    env_name: str
    seed: int
    total_steps: int
    converged: bool
    stage_steps: tuple[int, ...]
    final_return: float
    final_label: str
    # plotting/analysis artifacts; the fields above summarize the run
    curve: tuple = ()  # ((cumulative step, mean eval return), ...)
    stage_trajectories: tuple = ()  # ((stage label, Trajectory), ...)
    stage_policies: tuple = ()  # ((stage label, PolicyParams), ...)
    final_policy: PolicyParams | None = None


# The transfer steps below are request generators (see `rl.training`): they
# yield every engine call they need and return their report.  `drive` runs
# one of them alone; `envs.serve` runs many in lockstep.


def relax_stage(job: TransferJob, budget: int):
    """Train from the source policy with the barrier penalty removed."""
    if job.source is None:
        raise PreconditionViolated("relax stage needs a source policy")
    cfg = job.train_cfg(budget, job.relax_band, "relax")
    return (yield from training(job.env, relaxed_reward(job.env), job.source, cfg))


def relax_until_crossing(job: TransferJob, budget: int):
    """Relax-stage variant whose stopping rule also demands a crossing.

    The relaxed optimum is nearly flat between through and around paths, so
    plain band convergence can stop while the mean trajectory still skirts
    the barrier, leaving the subset search without the through trajectory it
    needs.  Train in chunks instead and stop at the first checkpoint whose
    evaluation mean is inside the band and whose mean path crosses the
    barrier.  Reports converged only when such a checkpoint was found.
    """
    if job.source is None:
        raise PreconditionViolated("relax stage needs a source policy")
    spec = relaxed_reward(job.env)
    policy = job.source
    steps = 0
    curve: list[tuple[int, float]] = []
    crossed = False
    chunk = 0
    while steps < budget:
        chunk_budget = min(RELAX_CHUNK_STEPS, budget - steps)
        cfg = job.train_cfg(chunk_budget, ConvergenceBand(math.inf, 1.0, 1), "relax", chunk)
        report = yield from training(
            job.env, spec, policy, replace(cfg, eval_every=chunk_budget + 1)
        )
        if report.interaction_steps == 0:
            break  # remaining budget is smaller than one batch
        policy = report.params
        steps += report.interaction_steps
        batch = yield evaluation_request(
            job.env, spec, policy, cfg.eval_episodes, derive_seed(job.seed, "relax-eval", chunk)
        )
        mean = float(np.mean(batch.returns))  # score_evaluation's mean
        curve.append((steps, mean))
        chunk += 1
        if abs(mean - job.relax_band.center) <= job.relax_band.half_width:
            if collides((yield from mean_trajectory(job.env, policy, spec)), job.env.barrier):
                crossed = True
                break
    return TrainReport(policy, steps, tuple(curve), crossed)


def run_curriculum(
    job: TransferJob,
    schedule: tuple[RewardSpec, ...],
    start: PolicyParams,
    budgets: tuple[int, ...],
    carry: int,
):
    """Train stage k from stage k-1's policy until its band is reached.

    Stage k may spend its share budgets[k] plus whatever was left unspent
    before it, starting from `carry` (the relax stage's leftover), so the
    curriculum spends at most carry + sum(budgets).  A stage that exhausts
    its allowance hands its best-evaluated checkpoint to the next stage (the
    overall run then counts as not converged); aborting instead would discard
    the remaining stages of an otherwise well-defined schedule.  Returns
    (stage reports, final policy).
    """
    validate_schedule(schedule, job.env.barrier)
    reports: list[TrainReport] = []
    policy = start
    for k, spec in enumerate(schedule):
        band = job.final_band if k == len(schedule) - 1 else job.stage_band
        allowance = budgets[k] + carry
        cfg = job.train_cfg(allowance, band, f"stage-{k}", keep_best=True)
        report = yield from training(job.env, spec, policy, cfg)
        reports.append(report)
        policy = report.params
        carry = allowance - report.interaction_steps
    return reports, policy


def _accumulate_curve(reports) -> tuple:
    curve = []
    offset = 0
    for r in reports:
        curve.extend((offset + s, v) for s, v in r.return_curve)
        offset += r.interaction_steps
    return tuple(curve)


def _stage_snapshots(job: TransferJob, labeled_reports):
    spec = relaxed_reward(job.env)
    snapshots = []
    for label, r in labeled_reports:
        snapshots.append((label, (yield from mean_trajectory(job.env, r.params, spec))))
    return tuple(snapshots)


def _transfer_report(
    job: TransferJob, method: str, reports: list, converged: bool, policy: PolicyParams
):
    """Score the final policy and assemble the run's report and artifacts."""
    detail = yield from evaluation(
        job.env,
        full_reward(job.env),
        policy,
        FINAL_EVAL_EPISODES,
        derive_seed(job.seed, "final-eval"),
    )
    hist = detail["histogram"]
    labeled = list(zip(stage_labels(method, len(reports)), reports))
    steps = tuple(r.interaction_steps for r in reports)
    return TransferReport(
        method,
        job.env.name,
        job.seed,
        sum(steps),
        converged,
        steps,
        detail["mean"],
        max(sorted(hist), key=lambda k: hist[k]) if hist else "",
        curve=_accumulate_curve(reports),
        stage_trajectories=(yield from _stage_snapshots(job, labeled)),
        stage_policies=tuple((label, r.params) for label, r in labeled),
        final_policy=policy,
    )


def ease_in_ease_out(job: TransferJob, method: str):
    """Relax stage, then the curriculum `method`; failure of any stage fails the run.

    The run spends at most job.budget steps in total: the relax stage gets
    its StageBudgets share, and its leftover passes on to the curriculum.
    """
    if method not in CURRICULA:
        raise ValueError(f"unknown curriculum {method!r}")
    schedule = job.schedule
    if schedule is None and method == "ease_reward":
        raise PreconditionViolated("reward-weight transfer needs an explicit alpha schedule")
    if method == "ease_barrier" and len(job.env.barrier.parts) != 1:
        raise PreconditionViolated("barrier-set transfer needs a single connected barrier")

    n_stages = len(schedule) if schedule is not None else AUTO_STAGES
    budgets = StageBudgets.split(job.budget, n_stages)

    if schedule is None:
        # the subset search needs a relaxed trajectory that actually crosses
        relax_report = yield from relax_until_crossing(job, budgets.relax)
    else:
        relax_report = yield from relax_stage(job, budgets.relax)
    reports = [relax_report]
    policy = relax_report.params
    converged = relax_report.converged

    if converged:
        if schedule is None:
            xi_s = yield from mean_trajectory(job.env, job.source, relaxed_reward(job.env))
            xi_relax = yield from mean_trajectory(job.env, policy, relaxed_reward(job.env))
            a_start, a_goal = job.env.anchors()
            sb1 = find_sb1(xi_s, xi_relax, job.env.barrier, a_start, a_goal)
            schedule = auto_barrier_schedule(sb1.region, job.env.barrier)
        stage_reports, policy = yield from run_curriculum(
            job, schedule, policy, budgets.stages,
            carry=budgets.relax - relax_report.interaction_steps,
        )
        converged = all(r.converged for r in stage_reports)
        reports += stage_reports
    return (yield from _transfer_report(job, method, reports, converged, policy))


def baseline_transfer(job: TransferJob, method: str):
    """naive / l2sp fine-tuning from the source policy, or training from a
    fresh random initialization, all under the final target reward."""
    if method not in BASELINES:
        raise ValueError(f"unknown baseline {method!r}")
    if job.source is None:  # random needs the source's arch
        raise PreconditionViolated(f"{method} needs a source policy")
    if method == "random":
        init = init_policy(job.source.arch, derive_seed(job.seed, "random-init"))
        l2sp = None
    else:
        init = job.source
        l2sp = (L2SP_COEFF, job.source.flat()) if method == "l2sp" else None
    cfg = job.train_cfg(job.budget, job.final_band, method)
    report = yield from training(job.env, full_reward(job.env), init, cfg, l2sp=l2sp)
    return (yield from _transfer_report(job, method, [report], report.converged, report.params))


def transfer(job: TransferJob, method: str):
    """One (method, job) run as a request generator; returns its TransferReport."""
    if method in CURRICULA:
        return (yield from ease_in_ease_out(job, method))
    return (yield from baseline_transfer(job, method))


def run_transfer(job: TransferJob, method: str) -> TransferReport:
    """Run one (method, job) transfer on its own."""
    return drive(job.env, transfer(job, method))
