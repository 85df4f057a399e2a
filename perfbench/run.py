#!/usr/bin/env python3
"""Benchmark for easerl.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`.  A run repeats whole rounds of the workload (set-up, operations,
output checks) until the next round would end after S seconds, and always
runs at least one.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 each round runs untraced and then
traced on the same inputs, and the metrics are the per-layer ones (per
traced round) plus the tracing overhead.  Run files go to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3


def import_program() -> float:
    """Import the package from this checkout's src/; returns the seconds."""
    start = perf_counter()
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import easerl

    if not os.path.abspath(easerl.__file__).startswith(src + os.sep):
        raise ImportError(f"easerl imported from {easerl.__file__}, not from {src}")
    import workloads  # noqa: F401  (imports checks and the program modules)

    return perf_counter() - start


def checked(wl, inputs, res) -> list[str]:
    """The workload's output checks; a check that raises (a missing or
    malformed output file, say) is one more failed check."""
    try:
        return wl.check(inputs, res)
    except Exception as exc:
        return [f"checking raised {exc!r}"]


def layer_metrics(tracer, rounds: int, trajectories: int, overhead: float) -> dict:
    c, tot, own, nested = tracer.calls, tracer.total, tracer.self_time, tracer.nested

    def per_round(v):
        return v / rounds

    def us_per_call(name):
        return tot[name] / c[name] * 1e6 if c[name] else 0.0

    rollout_s = tot["envs.rollout_record"] + tot["envs.mean_rollout"]
    episodes = c["envs.rollout_record"]
    m = {f"{name}.calls": (per_round(c[name]), "count") for name in (
        "envs.rollout_record", "envs.mean_rollout", "rl.episode_grad", "rl.evaluate_detail",
        "homotopy.collides", "homotopy.signature", "homotopy.traj_distance",
        "geometry.contains", "geometry.segment_intersects")}
    m.update({f"{name}.self_s": (per_round(own[name]), "s") for name in (
        "envs.rollout_record", "envs.step", "rl.act", "rl.log_prob_batch", "rl.train",
        "rl.evaluate_detail", "rl.landscape_scan", "homotopy.resample",
        "homotopy.w_infinity_matching", "homotopy.bottleneck_matching", "geometry.contains",
        "curriculum.validate_schedule", "runner.write_run_artifacts", "runner.rebuild_tables",
        "runner.render_plots", "plots.plot_landscape", "config.validate_config")})
    m.update({f"{name}.us_per_call": (us_per_call(name), "us") for name in (
        "rl.episode_grad", "homotopy.collides", "homotopy.signature")})
    scan_rollouts = nested[("envs.rollout_record", "rl.landscape_scan")]
    m.update({
        "envs.steps": (per_round(c["envs.step"]), "count"),
        "envs.steps_per_s": (c["envs.step"] / rollout_s if rollout_s else 0.0, "1/s"),
        "rl.eval_episode_share": (
            nested[("envs.rollout_record", "rl.evaluate_detail")] / episodes if episodes else 0.0,
            "ratio"),
        "rl.landscape_scan.rollouts_per_trajectory": (
            scan_rollouts / trajectories if trajectories else 0.0, "ratio"),
        "curriculum.run_curriculum.stages": (
            per_round(nested[("rl.train", "curriculum.run_curriculum")]), "count"),
        "trace.overhead_pct": (overhead, "%"),
    })
    return dict(sorted(m.items()))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        import_s = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    os.chdir(ROOT)
    run_dir = os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    tracer = Tracer() if args.trace else None

    setup_s, rates, plain_s, traced_s = [], [], [], []
    attempted = failed = trajectories = 0
    errors: list[str] = []
    start = perf_counter()
    rnd = 0
    while True:
        workdir = os.path.join(run_dir, f"round{rnd}")
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            t0 = perf_counter()
            inputs = wl.setup(args.seed, rnd, workdir)
            setup_s.append(perf_counter() - t0)
        for traced in ((False, True) if tracer else (False,)):
            if traced:
                if "out" in inputs:
                    shutil.rmtree(inputs["out"], ignore_errors=True)
                tracer.install()
            t0 = perf_counter()
            try:
                res = wl.run(inputs)
            except Exception as exc:  # outside any operation: reading the program's outputs
                errors.append(f"round {rnd}: {exc!r}")
                continue
            finally:
                if traced:
                    tracer.uninstall()
            elapsed = perf_counter() - t0
            (traced_s if traced else plain_s).append(elapsed)
            attempted += res["attempted"]
            failed += res["failed"]
            if traced:
                trajectories += res.get("trajectories", 0)
            else:
                rates.append(res["work"] / elapsed)
                for note in res.get("notes", []):
                    print(f"note: {wl.name} {note}", file=sys.stderr)
            errors += [f"round {rnd}: {e}" for e in checked(wl, inputs, res)]
        shutil.rmtree(workdir, ignore_errors=True)
        inputs = res = None
        gc.collect()  # every round starts from the same heap: peak RSS does not grow with rounds
        rnd += 1
        spent = perf_counter() - start
        if spent + spent / rnd > args.seconds:
            break

    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    if tracer:
        os.makedirs(OUT, exist_ok=True)
        tracer.write_spans(os.path.join(OUT, f"trace-{wl.name}-seed{args.seed}.json"))
        overhead = (sum(traced_s) / sum(plain_s) - 1.0) * 100.0 if plain_s and traced_s else 0.0
        metrics = layer_metrics(tracer, max(len(traced_s), 1), trajectories, overhead)
    else:
        metrics = {
            "setup_s": (import_s + statistics.median(setup_s), "s"),
            "work_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
