"""Per-layer tracing from outside the package.

The tracer replaces module attributes that the program looks up at call
time (for example `easerl.envs.rollout_record`, which `rl.train` calls as
`_envs.rollout_record`) with timing wrappers, and puts the originals back
afterwards.  Every wrapped call adds to its layer's count, total time and
self time (total minus the time of wrapped calls made inside it).  Coarse
calls are also kept as spans with their parent span; calls made once per
step or per segment are only aggregated.  Spans stay in memory until
`write_spans` is called at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from time import perf_counter

# (layer.function, keep spans, [(module, attribute), ...]): every place the
# program looks the function up at call time
TARGETS = [
    ("cli.main", True, [("easerl.cli", "main")]),
    ("config.validate_config", False, [("easerl.config", "validate_config"),
                                       ("easerl.cli", "validate_config")]),
    ("runner.run_transfer_experiment", True, [("easerl.runner", "run_transfer_experiment")]),
    ("runner.run_landscape", True, [("easerl.runner", "run_landscape")]),
    ("runner.write_run_artifacts", True, [("easerl.runner", "write_run_artifacts")]),
    ("runner.rebuild_tables", True, [("easerl.runner", "rebuild_tables")]),
    ("runner.render_plots", True, [("easerl.runner", "render_plots")]),
    ("plots.plot_landscape", True, [("easerl.runner", "plot_landscape")]),
    ("curriculum.run_transfer", True, [("easerl.runner", "run_transfer")]),
    ("curriculum.run_curriculum", True, [("easerl.curriculum", "run_curriculum")]),
    ("curriculum.validate_schedule", True, [("easerl.curriculum", "validate_schedule")]),
    ("rl.train", True, [("easerl.curriculum", "train")]),
    ("rl.evaluate_detail", True, [("easerl.rl", "evaluate_detail"),
                                  ("easerl.curriculum", "evaluate_detail")]),
    ("rl.landscape_scan", True, [("easerl.runner", "landscape_scan")]),
    ("envs.rollout_record", True, [("easerl.envs", "rollout_record")]),
    ("envs.mean_rollout", False, [("easerl.envs", "mean_rollout"),
                                  ("easerl.curriculum", "mean_rollout"),
                                  ("easerl.runner", "mean_rollout")]),
    ("envs.step", False, [("easerl.envs", "step")]),
    ("rl.act", False, [("easerl.rl", "act")]),
    ("rl.episode_grad", False, [("easerl.rl", "episode_grad")]),
    ("rl.log_prob_batch", False, [("easerl.rl", "log_prob_batch")]),
    ("homotopy.collides", False, [("easerl.homotopy", "collides"),
                                  ("easerl.curriculum", "collides")]),
    ("homotopy.signature", False, [("easerl.homotopy", "signature")]),
    ("homotopy.resample", False, [("easerl.homotopy", "resample")]),
    ("homotopy.traj_distance", False, [("easerl.homotopy", "traj_distance")]),
    ("homotopy.w_infinity_matching", True, [("easerl.homotopy", "w_infinity_matching")]),
    ("homotopy.bottleneck_matching", True, [("easerl.homotopy", "bottleneck_matching")]),
    ("geometry.contains", False, [("easerl.geometry", "contains"),
                                  ("easerl.envs", "contains"),
                                  ("easerl.curriculum", "contains")]),
    ("geometry.segment_intersects", False, [("easerl.geometry", "segment_intersects"),
                                            ("easerl.homotopy", "segment_intersects")]),
]

# (call, enclosing call): calls counted separately when made inside the other
NESTED = [
    ("envs.rollout_record", "rl.evaluate_detail"),
    ("envs.rollout_record", "rl.landscape_scan"),
    ("rl.train", "curriculum.run_curriculum"),
]


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.nested = Counter()
        self.active = Counter()
        self.spans: list[dict] = []
        self._frames: list[list[float]] = []  # child time of each open call
        self._span_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, keep_span, sites in TARGETS:
            wrapper = None
            for mod_name, attr in sites:
                module = importlib.import_module(mod_name)
                original = getattr(module, attr)
                if wrapper is None:
                    wrapper = self._wrap(name, keep_span, original)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, keep_span: bool, fn):
        tracer = self
        inside = [outer for inner, outer in NESTED if inner == name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for outer in inside:
                if tracer.active[outer]:
                    tracer.nested[(name, outer)] += 1
            frame = [0.0]
            tracer._frames.append(frame)
            tracer.active[name] += 1
            if keep_span:
                span = {"id": len(tracer.spans), "name": name,
                        "parent": tracer._span_stack[-1] if tracer._span_stack else None}
                tracer.spans.append(span)
                tracer._span_stack.append(span["id"])
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                dur = end - start
                tracer._frames.pop()
                tracer.active[name] -= 1
                if keep_span:
                    tracer._span_stack.pop()
                    span["start"], span["end"] = start, end
                if tracer._frames:
                    tracer._frames[-1][0] += dur
                tracer.calls[name] += 1
                tracer.total[name] += dur
                tracer.self_time[name] += dur - frame[0]

        return wrapper

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans}, f)
