import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from easerl import curriculum
from easerl.curriculum import (
    StageBudgets,
    TransferJob,
    auto_barrier_schedule,
    baseline_transfer,
    ease_in_ease_out,
    find_sb1,
    relax_stage,
    run_transfer,
    validate_schedule,
)
from easerl.envs import RewardSpec, drive, nav1_make, nav2_make
from easerl.errors import BudgetExhausted, PreconditionViolated
from easerl.geometry import ConvexPolygon, Point2, RegionSet
from easerl.homotopy import Trajectory, collides, divides
from easerl.rl import Arch, ConvergenceBand, TrainConfig, init_policy
from easerl.runner import read_runs_csv, write_runs_csv
from easerl.seeding import derive_seed

BARRIER = RegionSet((ConvexPolygon.rectangle(0.0, 0.0, 5.0, 2.0),), 1000.0)
START = Point2(0.0, -8.0)
GOAL = Point2(0.0, 9.0)


def path(*points) -> Trajectory:
    return Trajectory(np.array([(float(x), float(y)) for x, y in points]))


def vertical(x, lo=-8.0, hi=9.0, n=40) -> Trajectory:
    ys = np.linspace(lo, hi, n)
    return Trajectory(np.array([(x, y) for y in ys]))


RIGHT_AROUND = path((0, -8), (5, -4), (5, 4), (0, 9))


def weight_ramp(*weights, barrier=BARRIER):
    """A schedule that ramps the weight on the full barrier."""
    return tuple(RewardSpec(barrier, w) for w in weights)


def subset_ramp(*regions):
    """A schedule that grows the charged subset at full weight."""
    return tuple(RewardSpec(r, 1.0) for r in regions)


class TestScheduleType:
    def test_missing_payload(self):
        with pytest.raises(PreconditionViolated):
            validate_schedule((), BARRIER)

    def test_a_failing_schedule_raises_every_time(self):
        # the check is cached for schedules that pass, never for one that fails
        for _ in range(2):
            with pytest.raises(PreconditionViolated, match="final alpha"):
                validate_schedule(weight_ramp(0.5, 0.9), BARRIER)
        validate_schedule(weight_ramp(0.5, 1.0), BARRIER)
        validate_schedule(list(weight_ramp(0.5, 1.0)), BARRIER)  # a list is checked as a tuple

    def test_stages_and_specs(self):
        sched = weight_ramp(0.1, 0.5, 1.0)
        assert len(sched) == 3
        assert sched[0].weight == 0.1
        assert sched[2].region is BARRIER
        sub = RegionSet((ConvexPolygon.rectangle(0, 0, 1, 2),), 1000.0)
        bsched = subset_ramp(sub, BARRIER)
        assert len(bsched) == 2
        assert bsched[0].region is sub and bsched[0].weight == 1.0


class TestValidateSchedule:
    def test_good_alpha_ramp(self):
        validate_schedule(weight_ramp(0.001, 0.01, 0.1, 1.0), BARRIER)

    def test_alpha_not_increasing(self):
        with pytest.raises(PreconditionViolated, match="alphas must satisfy"):
            validate_schedule(weight_ramp(0.5, 0.3, 1.0), BARRIER)

    def test_alpha_zero_start(self):
        with pytest.raises(PreconditionViolated, match="alphas must satisfy"):
            validate_schedule(weight_ramp(0.0, 1.0), BARRIER)

    def test_alpha_must_end_at_one(self):
        with pytest.raises(PreconditionViolated, match="final alpha must equal 1"):
            validate_schedule(weight_ramp(0.1, 0.9), BARRIER)

    def test_good_nested_subsets(self):
        inner = RegionSet((ConvexPolygon.rectangle(0, 0, 2, 2),), 1000.0)
        validate_schedule(subset_ramp(inner, BARRIER), BARRIER)

    def test_non_nested_subsets(self):
        left = RegionSet((ConvexPolygon.rectangle(-1.5, 0, 2, 2),), 1000.0)
        right = RegionSet((ConvexPolygon.rectangle(1.5, 0, 2, 2),), 1000.0)
        with pytest.raises(PreconditionViolated, match="subset 0 is not contained in subset 1"):
            validate_schedule(subset_ramp(left, right, BARRIER), BARRIER)

    def test_final_subset_must_be_full_barrier(self):
        inner = RegionSet((ConvexPolygon.rectangle(0, 0, 2, 2),), 1000.0)
        almost = RegionSet((ConvexPolygon.rectangle(0, 0, 4.9, 2),), 1000.0)
        with pytest.raises(PreconditionViolated, match="final subset must equal the full barrier"):
            validate_schedule(subset_ramp(inner, almost), BARRIER)

    @pytest.mark.parametrize(
        "schedule",
        [
            weight_ramp(0.5, 0.5, 1.0),
            subset_ramp(RegionSet((ConvexPolygon.rectangle(0, 0, 2, 2),), 1000.0),
                        RegionSet((ConvexPolygon.rectangle(0, 0, 2, 2),), 1000.0), BARRIER),
            weight_ramp(0.5, 1.0, 1.0),
        ],
        ids=["repeated-alpha", "repeated-subset", "repeated-final-stage"],
    )
    def test_repeated_stage_rejected(self, schedule):
        # one rule for both ramps: each stage must charge more than the one
        # before it somewhere, so a stage equal to its predecessor is rejected
        with pytest.raises(PreconditionViolated, match="stage [12] charges the same penalty as stage [01]"):
            validate_schedule(schedule, BARRIER)

    def test_weight_may_rise_while_the_subset_grows(self):
        inner = RegionSet((ConvexPolygon.rectangle(0, 0, 2, 2),), 1000.0)
        validate_schedule((RewardSpec(inner, 0.5), RewardSpec(inner, 1.0),
                           RewardSpec(BARRIER, 1.0)), BARRIER)
        with pytest.raises(PreconditionViolated, match="alphas must satisfy"):
            validate_schedule((RewardSpec(inner, 1.0), RewardSpec(BARRIER, 0.5),
                               RewardSpec(BARRIER, 1.0)), BARRIER)

    def test_multipart_barrier_rejected(self):
        # explicit stages on nav2 pass validate_schedule, whose one rule
        # suits any barrier; ease_barrier itself refuses a barrier of two parts
        env2 = nav2_make("LL")
        stages = subset_ramp(env2.barrier)
        validate_schedule(stages, env2.barrier)
        job = tiny_job(env2, init_policy(Arch("linear", env2.spec.state_dim, 1), 0),
                       schedule=stages)
        with pytest.raises(PreconditionViolated, match="single connected barrier"):
            drive(job.env, ease_in_ease_out(job, "ease_barrier"))

    def test_interval_barrier_nesting(self):
        band = _band(0.0, 1.0)
        inner = _band(0.4, 0.6)
        validate_schedule(subset_ramp(inner, band), band)
        outer = _band(-0.5, 0.5)
        with pytest.raises(PreconditionViolated):
            validate_schedule(subset_ramp(outer, band), band)

    @pytest.mark.parametrize("off", [0.05, 0.1, 0.101, 0.102, 0.103, 0.15])
    def test_thin_band_outside_next_subset_rejected(self, off):
        # a band 0.004 high off the next subset: the probe grid must sample
        # the y axis on its own extent (spacing ~0.0022) to see it; padding
        # it by the barrier's 6.4 length would space probes 0.0052 apart
        c = math.pi / 4.0
        barrier = _band(c - 0.2, c + 0.2)
        thin = _band(c + off, c + off + 0.004)
        mid = _band(c - 0.02, c + 0.02)
        schedule = subset_ramp(thin, mid, barrier)
        with pytest.raises(PreconditionViolated):
            validate_schedule(schedule, barrier)


def _band(lo: float, hi: float) -> RegionSet:
    """The horizontal band lo <= y <= hi as a 6.4-long rectangle over
    0 <= x <= 6.4: a barrier far longer than it is high."""
    return RegionSet((ConvexPolygon.rectangle(3.2, (lo + hi) / 2.0, 6.4, hi - lo),), 1000.0)


class TestStageBudgets:
    def test_even_split_with_remainder_to_last(self):
        b = StageBudgets.split(200000, 2)
        assert b.relax == 66666
        assert b.stages == (66666, 66668)

    def test_no_stages(self):
        b = StageBudgets.split(1000, 0)
        assert b.relax == 1000
        assert b.stages == ()

    @given(st.integers(1, 10**7), st.integers(0, 9))
    @settings(max_examples=200, deadline=None)
    def test_split_conserves_budget(self, budget, n):
        b = StageBudgets.split(budget, n)
        assert b.relax + sum(b.stages) == budget
        assert b.relax == budget // (n + 1)
        assert all(s >= b.relax for s in b.stages)


class TestFindSb1:
    def test_through_left_of_center(self):
        relax = vertical(-1.0)
        res = find_sb1(RIGHT_AROUND, relax, BARRIER, START, GOAL)
        assert divides(RIGHT_AROUND, relax, res.region, START, GOAL)
        assert collides(relax, res.region)
        assert res.halvings <= 12 and res.inflations <= 20
        # the subset stays inside the barrier
        x0, y0, x1, y1 = res.region.bbox()
        bx0, by0, bx1, by1 = BARRIER.bbox()
        assert x0 >= bx0 - 1e-9 and x1 <= bx1 + 1e-9
        assert y0 >= by0 - 1e-9 and y1 <= by1 + 1e-9

    def test_first_halving_discards_far_half(self):
        """A crossing far to one side separates after a single halving."""
        relax = vertical(-2.0)
        res = find_sb1(RIGHT_AROUND, relax, BARRIER, START, GOAL)
        assert res.halvings == 1
        assert res.inflations == 0
        assert res.region.bbox()[2] <= 0.0 + 1e-9  # kept the left half only

    def test_inflation_grows_noncontacting_subset_until_touch(self):
        # the dividing half sits between the paths here, so the search must
        # inflate it into contact with the relaxed trajectory
        relax = vertical(-1.0)
        res = find_sb1(RIGHT_AROUND, relax, BARRIER, START, GOAL)
        assert res.inflations >= 1
        assert collides(relax, res.region)

    def test_source_collision_rejected(self):
        through = vertical(0.0)
        with pytest.raises(PreconditionViolated):
            find_sb1(through, vertical(-1.0), BARRIER, START, GOAL)

    def test_relax_must_collide(self):
        left_around = path((0, -8), (-5, -4), (-5, 4), (0, 9))
        with pytest.raises(PreconditionViolated):
            find_sb1(RIGHT_AROUND, left_around, BARRIER, START, GOAL)

    def test_multipart_barrier_rejected(self):
        two = RegionSet(
            (
                ConvexPolygon.rectangle(-2, 0, 1, 2),
                ConvexPolygon.rectangle(2, 0, 1, 2),
            ),
            1000.0,
        )
        with pytest.raises(PreconditionViolated):
            find_sb1(RIGHT_AROUND, vertical(-2.0), two, START, GOAL)

    def test_halving_budget_exhaustion(self, monkeypatch):
        # a same-side crossing leaves both first-cut halves with matching
        # parities, so one halving is not enough and the search must give up
        relax = vertical(1.5)
        monkeypatch.setattr(curriculum, "MAX_HALVINGS", 1)
        with pytest.raises(BudgetExhausted):
            find_sb1(RIGHT_AROUND, relax, BARRIER, START, GOAL)

    def test_works_for_right_side_crossing(self):
        left_around = path((0, -8), (-5, -4), (-5, 4), (0, 9))
        relax = vertical(1.5)
        res = find_sb1(left_around, relax, BARRIER, START, GOAL)
        assert divides(left_around, relax, res.region, START, GOAL)
        assert collides(relax, res.region)


class TestAutoSchedule:
    def test_nested_and_ends_at_barrier(self):
        relax = vertical(-1.0)
        sb1 = find_sb1(RIGHT_AROUND, relax, BARRIER, START, GOAL)
        sched = auto_barrier_schedule(sb1.region, BARRIER)
        assert len(sched) == curriculum.AUTO_STAGES == 3
        validate_schedule(sched, BARRIER)
        assert sched[-1].region is BARRIER and sched[-1].weight == 1.0


def tiny_job(env, source, budget=4000, schedule=None, center=0.0, half=1e9):
    band = ConvergenceBand(center, half, 1)
    return TransferJob(
        env=env,
        source=source,
        seed=0,
        budget=budget,
        schedule=schedule,
        relax_band=band,
        stage_band=band,
        final_band=band,
        training=TrainConfig(
            seed=0, max_interaction_steps=budget, convergence=band,
            batch_episodes=2, eval_every=1000, eval_episodes=2,
        ),
    )


@pytest.fixture(scope="module")
def nav1_env():
    return nav1_make(1, "left")


@pytest.fixture(scope="module")
def nav1_source(nav1_env):
    pol = init_policy(Arch("linear", nav1_env.spec.state_dim, nav1_env.spec.action_dim), 0)
    pol.theta = pol.theta + 0.01
    return pol


class TestTransferPlumbing:
    def test_relax_stage_needs_source(self, nav1_env):
        job = tiny_job(nav1_env, None)
        with pytest.raises(PreconditionViolated):
            drive(job.env, relax_stage(job, 1000))

    def test_ease_barrier_instant_bands(self, nav1_env, nav1_source):
        sched = subset_ramp(nav1_env.barrier)
        job = tiny_job(nav1_env, nav1_source, schedule=sched)
        rep = drive(job.env, ease_in_ease_out(job, "ease_barrier"))
        assert rep.method == "ease_barrier"
        assert rep.converged
        assert len(rep.stage_steps) == 2  # relax + one stage
        assert rep.total_steps == sum(rep.stage_steps)
        assert [lbl for lbl, _ in rep.stage_trajectories] == ["relax", "stage-0"]
        assert rep.curve  # eval points were recorded
        assert rep.final_policy is not None

    def test_ease_reward_needs_alphas(self, nav1_env, nav1_source):
        job = tiny_job(nav1_env, nav1_source, schedule=None)
        with pytest.raises(PreconditionViolated):
            drive(job.env, ease_in_ease_out(job, "ease_reward"))

    def test_barrier_set_rejects_multipart_env(self, nav1_source):
        env2 = nav2_make("LL")
        job = tiny_job(env2, None)
        job.source = init_policy(Arch("linear", env2.spec.state_dim, 1), 0)
        with pytest.raises(PreconditionViolated):
            drive(job.env, ease_in_ease_out(job, "ease_barrier"))

    def test_relax_failure_skips_curriculum(self, nav1_env, nav1_source):
        sched = subset_ramp(nav1_env.barrier)
        job = tiny_job(nav1_env, nav1_source, schedule=sched, center=1e9, half=1.0)
        rep = drive(job.env, ease_in_ease_out(job, "ease_barrier"))
        assert not rep.converged
        assert len(rep.stage_steps) == 1  # only the relax stage ran
        assert rep.stage_trajectories[0][0] == "relax"

    def test_stage_failure_reported(self, nav1_env, nav1_source):
        sched = subset_ramp(nav1_env.barrier)
        job = tiny_job(nav1_env, nav1_source, schedule=sched)
        job.stage_band = ConvergenceBand(1e9, 1.0, 1)
        job.final_band = ConvergenceBand(1e9, 1.0, 1)
        rep = drive(job.env, ease_in_ease_out(job, "ease_barrier"))
        assert not rep.converged
        assert len(rep.stage_steps) == 2  # relax plus the failed stage
        assert rep.stage_steps[1] > 0

    def test_unspent_budget_passes_to_later_stages(self, nav1_env, nav1_source):
        # the relax band is reached at step 0, so its whole share is left
        # over; the stage band is unreachable, so the stage spends all it may
        sched = subset_ramp(nav1_env.barrier)
        job = tiny_job(nav1_env, nav1_source, schedule=sched)
        job.stage_band = ConvergenceBand(1e9, 1.0, 1)
        job.final_band = ConvergenceBand(1e9, 1.0, 1)
        shares = StageBudgets.split(job.budget, 1)
        rep = drive(job.env, ease_in_ease_out(job, "ease_barrier"))
        assert not rep.converged
        relax = drive(job.env, relax_stage(job, shares.relax))
        assert rep.stage_steps[0] == relax.interaction_steps
        assert rep.stage_steps[1] > shares.stages[0]
        assert rep.total_steps <= job.budget

    def test_auto_mode_fails_run_when_relax_never_crosses(self, nav1_env):
        # a hard-right-circling source stays far from the barrier, and the
        # tiny relax budget cannot move it, so no crossing checkpoint exists
        # and the run is reported failed without reaching the subset search
        spinner = init_policy(
            Arch("linear", nav1_env.spec.state_dim, nav1_env.spec.action_dim), 0
        )
        spinner.theta = spinner.theta.copy()
        spinner.theta[3] = -30.0  # strong negative weight on sin(heading)
        spinner.log_std = np.array([-5.0])
        job = tiny_job(nav1_env, spinner, budget=16000, schedule=None)
        rep = drive(job.env, ease_in_ease_out(job, "ease_barrier"))
        assert not rep.converged
        assert len(rep.stage_steps) == 1  # only the relax stage ran

    def test_baselines_run_and_report(self, nav1_env, nav1_source):
        for method in ("naive", "l2sp", "random"):
            job = tiny_job(nav1_env, nav1_source)
            rep = drive(job.env, baseline_transfer(job, method))
            assert rep.method == method
            assert rep.converged
            assert len(rep.stage_steps) == 1
            assert rep.stage_trajectories[0][0] == "final"

    @pytest.mark.parametrize("method", ["naive", "l2sp", "random"])
    def test_baselines_need_source(self, nav1_env, method):
        job = tiny_job(nav1_env, None)
        with pytest.raises(PreconditionViolated):
            drive(job.env, baseline_transfer(job, method))

    def test_unknown_curriculum(self, nav1_env, nav1_source):
        job = tiny_job(nav1_env, nav1_source, schedule=subset_ramp(nav1_env.barrier))
        with pytest.raises(ValueError, match="unknown curriculum"):
            drive(nav1_env, ease_in_ease_out(job, "barrier_set"))

    def test_unknown_baseline(self, nav1_env, nav1_source):
        with pytest.raises(ValueError):
            drive(nav1_env, baseline_transfer(tiny_job(nav1_env, nav1_source), "finetune"))

    def test_run_transfer_dispatch(self, nav1_env, nav1_source):
        job = tiny_job(nav1_env, nav1_source)
        assert run_transfer(job, "naive").method == "naive"
        sched = weight_ramp(1.0, barrier=nav1_env.barrier)
        job2 = tiny_job(nav1_env, nav1_source, schedule=sched)
        assert run_transfer(job2, "ease_reward").method == "ease_reward"

    def test_random_baseline_ignores_source_weights(self, nav1_env, nav1_source):
        job = tiny_job(nav1_env, nav1_source, budget=1000)
        rep = drive(job.env, baseline_transfer(job, "random"))
        # the random run must not start from the source parameters
        assert not np.array_equal(rep.final_policy.theta, nav1_source.theta) or (
            rep.total_steps == 0
        )

    def test_per_stage_seeds_differ(self, nav1_env, nav1_source):
        job = tiny_job(nav1_env, nav1_source)
        a = job.train_cfg(100, job.relax_band, "relax")
        b = job.train_cfg(100, job.stage_band, "stage-0")
        assert a.seed != b.seed
        # relax chunks of the auto schedule are seeded per chunk
        chunk = job.train_cfg(100, job.relax_band, "relax", 3)
        assert chunk.seed == derive_seed(job.seed, "relax", 3)
        assert (chunk.batch_episodes, chunk.eval_episodes) == (2, 2)

    def test_csv_row_shape(self, nav1_env, nav1_source, tmp_path):
        job = tiny_job(nav1_env, nav1_source, budget=1500)
        rep = drive(job.env, baseline_transfer(job, "naive"))
        write_runs_csv(tmp_path / "runs.csv", [rep])
        [row] = read_runs_csv(tmp_path / "runs.csv")
        assert len(row) == 8
        assert row["method"] == "naive"
        assert row["env"] == nav1_env.name
        assert row["final_return"] == pytest.approx(rep.final_return)
