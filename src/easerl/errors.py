"""Exception taxonomy shared by all easerl modules."""


class EaseRlError(Exception):
    """Base class for all library errors."""


class ConfigError(EaseRlError):
    """Malformed, unknown-key, or out-of-range configuration input."""


class DegenerateCut(EaseRlError):
    """Bisection produced a half with near-zero area."""


class CollidingTrajectory(EaseRlError):
    """Homotopy class requested for a trajectory that passes through the barrier."""


class LengthMismatch(EaseRlError):
    """Pointwise trajectory metric applied to unequal-length trajectories."""


class UnequalSupport(EaseRlError):
    """Bottleneck distance between empirical distributions of different sample counts."""


class UnsupportedSize(EaseRlError):
    """Environment constructor given a barrier size outside its supported set."""


class NonFiniteAction(EaseRlError):
    """Environment stepped with a NaN or infinite action."""


class NonFiniteState(EaseRlError):
    """Policy queried with a NaN or infinite observation."""


class DivergedTraining(EaseRlError):
    """Policy parameters became non-finite during optimization."""


class PreconditionViolated(EaseRlError):
    """A stage or search entered with its documented precondition unmet."""


class BudgetExhausted(EaseRlError):
    """Search loop exceeded its halving or inflation budget."""


class MissingCheckpoint(EaseRlError):
    """Transfer run requested before its source checkpoint exists."""


class MissingData(EaseRlError):
    """Plot or table regeneration pointed at a run directory without results."""
