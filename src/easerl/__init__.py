"""Ease-in-ease-out transfer for policies that must switch homotopy class.

The package bundles the 2-D geometry and trajectory-class machinery, a small
REINFORCE engine, curriculum construction and validation, transfer baselines,
and a reproducible experiment harness with a CLI front end.  The top level
exports what the README's Library section uses; everything else is imported
from its module.
"""

__version__ = "0.1.0"

from .config import nav1_defaults
from .curriculum import run_transfer, validate_schedule
from .envs import RewardSpec, full_reward, mean_rollout, nav1_make, relaxed_reward
from .homotopy import same_class
from .rl import load_checkpoint

__all__ = [
    "RewardSpec",
    "full_reward",
    "load_checkpoint",
    "mean_rollout",
    "nav1_defaults",
    "nav1_make",
    "relaxed_reward",
    "run_transfer",
    "same_class",
    "validate_schedule",
]
