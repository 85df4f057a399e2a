"""Ease-in-ease-out transfer for policies that must switch homotopy class.

The package bundles the 2-D geometry and trajectory-class machinery, a small
REINFORCE engine, curriculum construction and validation, transfer baselines,
and a reproducible experiment harness with a CLI front end.
"""

__version__ = "0.1.0"

from .config import default_config, nav1_defaults, nav2_defaults, validate_config
from .curriculum import (
    FindSb1Config,
    StageBudgets,
    TransferJob,
    TransferReport,
    auto_barrier_schedule,
    ease_in_ease_out,
    find_sb1,
    relax_until_crossing,
    run_transfer,
    validate_schedule,
)
from .envs import (
    RewardSpec,
    drive,
    full_reward,
    landscape_make,
    mean_rollout,
    nav1_make,
    nav2_make,
    noise_tapes,
    relaxed_reward,
    rollout_batch,
    step,
)
from .geometry import ConvexPolygon, Point2, RegionSet
from .homotopy import (
    ClassSignature,
    EmpiricalDistribution,
    Trajectory,
    collides,
    divides,
    resample,
    same_class,
    signature,
    w_infinity_matching,
)
from .rl import (
    Arch,
    ConvergenceBand,
    GridSpec,
    PolicyParams,
    TrainConfig,
    evaluate_detail,
    init_policy,
    landscape_scan,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .seeding import derive_seed, rng_for

__all__ = [
    "Arch",
    "ClassSignature",
    "ConvergenceBand",
    "ConvexPolygon",
    "EmpiricalDistribution",
    "FindSb1Config",
    "GridSpec",
    "Point2",
    "PolicyParams",
    "RegionSet",
    "RewardSpec",
    "StageBudgets",
    "TrainConfig",
    "Trajectory",
    "TransferJob",
    "TransferReport",
    "auto_barrier_schedule",
    "collides",
    "default_config",
    "derive_seed",
    "divides",
    "drive",
    "ease_in_ease_out",
    "evaluate_detail",
    "find_sb1",
    "full_reward",
    "init_policy",
    "landscape_make",
    "landscape_scan",
    "load_checkpoint",
    "mean_rollout",
    "nav1_defaults",
    "nav1_make",
    "nav2_defaults",
    "nav2_make",
    "noise_tapes",
    "relax_until_crossing",
    "relaxed_reward",
    "resample",
    "rng_for",
    "rollout_batch",
    "run_transfer",
    "same_class",
    "save_checkpoint",
    "signature",
    "step",
    "train",
    "validate_config",
    "validate_schedule",
    "w_infinity_matching",
]
