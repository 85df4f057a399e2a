#!/usr/bin/env python3
"""Regenerate the reference figures in perfbench/README.md.

    python3 perfbench/reference.py [--seeds 1-10]

Runs `run.py` once per workload of BENCHMARK.json and seed with tracing
off, one at a time, then once per workload with tracing on (first seed),
and prints Markdown
tables: the median and quartiles of every end-to-end metric with its spread
(the distance between the quartiles as a share of the median), the
per-seed `transfer-nav1` runs, and the traced per-layer figures.  Run from
the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    sys.stderr.write(proc.stderr)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["notes"] = [line[len("note: "):] for line in proc.stderr.splitlines()
                    if line.startswith("note: ")]
    return res


def num(v: float) -> str:
    return f"{v:.0f}" if abs(v) >= 1000 else f"{v:.4g}"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seeds = seed_range(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    notes = []
    print("| workload | metric | unit | median | q1 | q3 | spread | bound | failed/attempted |")
    print("|---|---|---|---|---|---|---|---|---|")
    for name in names:
        results = []
        for seed in seeds:
            res = run_once(spec, name, seed, 0)
            print(f"<!-- {name} seed {seed}: {json.dumps(res)} -->", file=sys.stderr)
            if not res["correct"]:
                print(f"{name} seed {seed}: output checks failed", file=sys.stderr)
                return 1
            results.append(res)
            notes += [f"| {seed} | {note} |" for note in res["notes"]]
        fails = f"{sum(r['failed'] for r in results)}/{sum(r['attempted'] for r in results)}"
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            unit = results[0]["metrics"][metric]["unit"]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"| {name} | {metric} | {unit} | {num(med)} | {num(q1)} | {num(q3)} "
                  f"| {(q3 - q1) / med:.3f} | {bound} | {fails} |")
    if notes:
        print("\n| seed | run |\n|---|---|")
        print("\n".join(notes))

    traced = {name: run_once(spec, name, seeds[0], 1) for name in names}
    print()
    print("| metric | unit | " + " | ".join(names) + " |")
    print("|---|---|" + "---|" * len(names))
    for m in spec["per_layer"]:
        row = [num(traced[n]["metrics"][m["name"]]["value"]) for n in names]
        print(f"| {m['name']} | {m['unit']} | " + " | ".join(row) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
