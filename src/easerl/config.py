"""Experiment configuration: one YAML document, schema-versioned, strictly
validated.

Unknown keys anywhere in the document are errors, so typos fail loudly.  A
user file is deep-merged over environment-specific defaults; the merged and
validated document round-trips bit-identically through serialize/parse.
"""

from __future__ import annotations

import copy
import hashlib
import math

import numpy as np
import yaml

from .curriculum import METHODS
from .envs import NAV_SIZES
from .errors import ConfigError

SCHEMA_VERSION = 1

# Convergence band centers below are measured quantities: each is the mean
# final evaluation return of policies trained from random init on that task
# (the random-init baseline procedure), frozen here so runs are reproducible.
# Regenerate with `easerl train` on the matching config and a fresh seed.
_NAV1_CENTERS = {1: 11.0, 3: 10.9, 5: 10.7, 7: 10.0}

# The relaxed task (penalty off) has a size-independent optimum: the straight
# start-to-goal path. Measured converged return for the shipped shaping.
_NAV1_RELAX_CENTER = 11.2

_BASE_DEFAULTS = {
    "schema_version": SCHEMA_VERSION,
    "seed": 0,
    "environment": {
        "name": "nav1",
        "barrier_size": 7,
        "target_side": "left",
    },
    "training": {
        "learning_rate": 1e-3,
        "batch_episodes": 10,
        "eval_every": 4096,
        "eval_episodes": 8,
        "max_steps": 200000,
        "convergence": {"center": 0.0, "half_width": 2.0, "patience": 3},
    },
    "transfer": {
        "methods": ["ease_barrier", "naive"],
        "seeds": [0, 1, 2, 3, 4],
        "budget": 200000,
        "source_checkpoint": "",
        "relax_convergence": {"center": 0.0, "half_width": 2.0, "patience": 3},
        "stage_convergence": {"center": 0.0, "half_width": 2.0, "patience": 3},
        "schedule": {
            "alphas": [],
            "barrier_sizes": [],
        },
    },
    "landscape": {
        "barrier_size": 5,
        "lo": -1.0,
        "hi": 1.3,
        "bucket": 0.1,
        "samples_per_cell": 10,
        "log_std": 0.0,
        # side-optimal 2-parameter policies, found by training each side from
        # an init inside its own class basin (gradient steps cannot cross the
        # collision hump from a zero init)
        "theta_source": [0.2, 0.44],
        "theta_target": [0.25, -0.4],
    },
    "output": {
        "plots": True,
    },
}


def default_config() -> dict:
    return copy.deepcopy(_BASE_DEFAULTS)


_KINDS = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
          list: "a list"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _finite_numbers(values) -> bool:
    return all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and _finite(v) for v in values
    )


def _reads_as_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _check_leaf(default, value, path: str) -> None:
    """A leaf keeps its default's type; an int may stand for a float, a bool
    never for a number."""
    if isinstance(default, float) and _is_int(value):
        return
    if type(value) is not type(default):
        msg = f"{path} must be {_KINDS[type(default)]}, got {value!r}"
        if isinstance(default, float) and isinstance(value, str) and _reads_as_float(value):
            msg += " (YAML reads an exponent as a number only with a decimal point"
            msg += " and a sign: 1.0e-3, not 1e-3)"
        raise ConfigError(msg)


def _merge(base: dict, override: dict, path: str) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {here}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{here} must be a mapping")
            out[key] = _merge(base[key], value, here)
        else:
            _check_leaf(base[key], value, here)
            out[key] = value
    return out


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _require_count(value: int, path: str) -> None:
    _require(value >= 1, f"{path} must be an integer >= 1")


def _require_band(band: dict, path: str) -> None:
    _require(band["half_width"] > 0, f"{path}.half_width must be positive")
    _require(band["patience"] >= 1, f"{path}.patience must be >= 1")


def validate_config(cfg: dict) -> dict:
    """Merge over defaults, then check types and ranges. Returns the merged doc."""
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    merged = _merge(_BASE_DEFAULTS, cfg, "")
    _require(
        merged["schema_version"] == SCHEMA_VERSION,
        f"schema_version must be {SCHEMA_VERSION}",
    )
    env = merged["environment"]
    _require(env["name"] in ("nav1", "nav2"), f"unknown environment.name {env['name']!r}")
    if env["name"] == "nav1":
        _require(
            env["barrier_size"] in NAV_SIZES, f"environment.barrier_size must be one of {NAV_SIZES}"
        )
        _require(env["target_side"] in ("left", "right"), "nav1 target_side must be left or right")
    else:
        side = env["target_side"]
        _require(
            len(side) == 2 and all(c in "LR" for c in side),
            "nav2 target_side must be two letters from {L, R}",
        )
    tr = merged["training"]
    _require(tr["learning_rate"] > 0, "training.learning_rate must be positive")
    _require(tr["batch_episodes"] >= 1, "training.batch_episodes must be >= 1")
    _require(tr["max_steps"] >= 1, "training.max_steps must be >= 1")
    _require_count(tr["eval_every"], "training.eval_every")
    _require_count(tr["eval_episodes"], "training.eval_episodes")
    _require_band(tr["convergence"], "training.convergence")
    xfer = merged["transfer"]
    _require(xfer["methods"], "transfer.methods must be a non-empty list")
    for m in xfer["methods"]:
        _require(m in METHODS, f"unknown transfer method {m!r}")
    _require(
        xfer["seeds"] and all(_is_int(s) for s in xfer["seeds"]),
        "transfer.seeds must be a non-empty list of integers",
    )
    # a repeated entry would run, and count in the tables, the same run twice
    for key in ("methods", "seeds"):
        _require(len(set(xfer[key])) == len(xfer[key]),
                 f"transfer.{key} must not repeat an entry, got {xfer[key]}")
    _require(xfer["budget"] >= 1, "transfer.budget must be >= 1")
    for block in ("relax_convergence", "stage_convergence"):
        _require_band(xfer[block], f"transfer.{block}")
    sched = xfer["schedule"]
    for key in ("alphas", "barrier_sizes"):
        _require(_finite_numbers(sched[key]), f"transfer.schedule.{key} must be finite numbers")
    sizes = sched["barrier_sizes"]
    _require(all(v > 0 for v in sizes),
             f"transfer.schedule.barrier_sizes must be positive widths, got {sizes}")
    land = merged["landscape"]
    _require(land["barrier_size"] in NAV_SIZES, f"landscape.barrier_size must be one of {NAV_SIZES}")
    for key in ("lo", "hi", "bucket"):
        _require(_finite(land[key]), f"landscape.{key} must be finite, got {land[key]!r}")
    _require(land["bucket"] > 0, "landscape.bucket must be positive")
    _require(land["hi"] > land["lo"], "landscape.hi must exceed landscape.lo")
    # the grid's points per axis, as GridSpec.values counts them, must be an
    # array length NumPy can index
    gaps = (float(land["hi"]) - float(land["lo"])) / land["bucket"]
    most = np.iinfo(np.intp).max
    _require(
        math.isfinite(gaps) and round(gaps) + 1 <= most,
        f"landscape.bucket is too small for landscape.lo and hi: (hi - lo) / bucket = "
        f"{gaps!r} steps per axis, and an array holds at most {most} points",
    )
    _require(land["samples_per_cell"] >= 1, "landscape.samples_per_cell must be >= 1")
    for key in ("theta_source", "theta_target"):
        theta = land[key]
        _require(
            len(theta) == 2 and _finite_numbers(theta),
            f"landscape.{key} must be two finite numbers",
        )
    return merged


def nav1_defaults(barrier_size: int, target_side: str = "left") -> dict:
    """Calibrated defaults for a nav1 transfer experiment."""
    cfg = default_config()
    cfg["environment"] = {
        "name": "nav1",
        "barrier_size": barrier_size,
        "target_side": target_side,
    }
    center = _NAV1_CENTERS.get(barrier_size, 10.0)
    # patience 5 and a roomy step ceiling for source training: the larger
    # barriers occasionally pass through the band on a lucky eval before the
    # policy is actually reliable, and a premature source poisons every
    # downstream transfer run
    cfg["training"]["convergence"] = {"center": center, "half_width": 2.0, "patience": 5}
    cfg["training"]["max_steps"] = 500000
    cfg["transfer"]["relax_convergence"] = {
        "center": _NAV1_RELAX_CENTER, "half_width": 2.0, "patience": 3,
    }
    cfg["transfer"]["stage_convergence"] = {"center": center, "half_width": 2.0, "patience": 3}
    if barrier_size == 7:
        cfg["transfer"]["schedule"]["barrier_sizes"] = [4, 7]
    return validate_config(cfg)


def nav2_defaults(target_side: str = "RR") -> dict:
    cfg = default_config()
    cfg["environment"] = {"name": "nav2", "barrier_size": 7, "target_side": target_side}
    # the subset search needs a barrier of one part; nav2's has two
    cfg["transfer"]["methods"] = ["ease_reward", "naive"]
    # measured plateau of a clean correct-class policy is ~3200; the band floor
    # (2600) still excludes wrong-class goal reachers (~2150)
    cfg["training"]["convergence"] = {"center": 3200.0, "half_width": 600.0, "patience": 5}
    cfg["training"]["max_steps"] = 800000
    # eight equal shares (relax + seven alpha stages) of 500k each, and a
    # stage may also spend what earlier stages left unspent; stages that are
    # already inside their band gate at step 0 and spend nothing, so the
    # budget is consumed only by the relax stage (~50-100k) and the two or
    # three weight stages where the barrier transit actually has to shrink
    cfg["transfer"]["budget"] = 4000000
    # the penalty-free optimum measured from a wrong-class source is ~3175
    # (both side bonuses, straight through the barriers); the band floor 2800
    # rejects the wrong-class plateau (~2150) and the one-bonus plateau
    # (~2660), so relax and every weight stage must keep both side bonuses.
    # For stage weight w the floor doubles as a transit ceiling (3175 - w*M*c
    # >= 2800), which tightens 12.5 -> 3.75 -> 1.25 over w = 0.03, 0.1, 0.3:
    # loosening it instead lets the mid-weight stages gate on slow cut-through
    # policies that the next weight then distorts without recovering.
    # Stage patience is 1 because updates after reaching the band only let the
    # normalized-advantage steps random-walk an already-adequate policy
    cfg["transfer"]["relax_convergence"] = {"center": 3150.0, "half_width": 350.0, "patience": 3}
    cfg["transfer"]["stage_convergence"] = {"center": 3150.0, "half_width": 350.0, "patience": 1}
    cfg["transfer"]["schedule"]["alphas"] = [0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0]
    return validate_config(cfg)


def serialize_config(cfg: dict) -> str:
    return yaml.safe_dump(cfg, sort_keys=True, default_flow_style=False)


def parse_config(text: str) -> dict:
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if doc is None:
        doc = {}
    return validate_config(doc)


def read_file(path, what: str) -> str:
    """The text of a file named on the command line; a missing or unreadable
    one (a directory, say) is a ConfigError naming it."""
    try:
        with open(path) as f:
            return f.read()
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror}") from exc


def load_config(path) -> dict:
    return parse_config(read_file(path, "config file"))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]
