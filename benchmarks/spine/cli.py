"""Command line of the measurement spine (see ``README.md``).

``--workload <name>`` with ``--trace 0|1`` is the ``BENCHMARK.json``
contract: the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (every end-to-end
metric untraced, every per-layer metric traced).  ``--workload all``
prints the same tables for all four workloads.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

import numpy as np

from benchmarks.spine.layers import PER_LAYER
from benchmarks.spine.runner import (END_TO_END, EXTRA_END_TO_END, Run,
                                     run_traced, run_untraced)
from benchmarks.spine.workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
DEFAULT_OUT = HERE / "out"
#: ``--selfcheck`` tolerance on wall metrics between two same-seed runs:
#: their regression bound.
WALL_BOUND = {name: bound for name, _, _, bound in END_TO_END}["wall_qps"]


@functools.lru_cache(maxsize=None)
def environment(seed: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {"platform": platform.platform(), "python":
            platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "seed": seed, "git_sha": sha}


def contract_result(run: Run) -> dict:
    """The JSON object the driver reads from the last output line."""
    if run.traced:
        metrics = {name: {"value": run.per_layer[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": run.end_to_end[name], "unit": unit}
                   for name, unit, _, _ in END_TO_END}
    return {"correct": run.correct, "attempted": run.window.attempted,
            "failed": run.window.failed, "metrics": metrics}


def print_run(run: Run) -> None:
    window = run.window
    print(f"== {run.workload}  seed={run.seed} scale={run.scale} "
          f"seconds={run.seconds:g} "
          f"{'traced' if run.traced else 'untraced'} ==")
    if not run.traced:
        for name, unit, better, bound in END_TO_END:
            print(f"  {name:<28} {run.end_to_end[name]:>14.4f} {unit:<9}"
                  f"({better} is better, bound {bound:.1%})")
        for name, unit in EXTRA_END_TO_END.items():
            value = {**window.sim, **window.wall}.get(name)
            if value is not None:
                print(f"  {name:<28} {value:>14.4f} {unit}")
        print(f"  {'setup_s samples':<28} "
              + " ".join(f"{value:.3f}" for value in run.setup_s))
    else:
        for name, unit, _ in PER_LAYER:
            value = run.per_layer[name]
            if value or name.split(".")[0] not in ("frontdoor", "writer",
                                                   "rebuild", "reclaim"):
                print(f"  {name:<44} {value:>16.4f} {unit}")
    print(f"  {'failed_share':<28} {run.failed_share:>14.6f} fraction "
          f"({window.failed} failed of {window.attempted} attempted)")
    print(f"  answer digest {window.digest[:16]}  "
          f"recall@10 {window.recall_at_10:.4f}")
    if run.workload == "frontdoor_open":
        print("  open loop on the simulated clock: arrivals are generated "
              "timestamps, generator lateness is 0 by construction")
    for problem in window.problems:
        print(f"  PROBLEM: {problem}")


def save(run: Run, out: pathlib.Path, comparable: bool) -> None:
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{run.workload}.seed{run.seed}" + (".traced" if run.traced
                                               else "")
    record = {"workload": run.workload, "why": WORKLOADS[run.workload].why,
              "comparable": comparable, "scale": run.scale,
              "seconds": run.seconds, "traced": run.traced,
              "environment": environment(run.seed),
              "setup_s_samples": run.setup_s,
              "digest": run.window.digest,
              "sim": run.window.sim, "wall": run.window.wall,
              "counters": run.window.counters,
              "door": {str(rate): fields
                       for rate, fields in run.window.door.items()},
              "problems": run.window.problems,
              **contract_result(run)}
    (out / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if run.tracer is not None:
        run.tracer.write_jsonl(out / f"{stem}.trace.jsonl")


def run_one(name: str, args) -> list[Run]:
    """Untraced run, plus the traced repeat when ``--trace`` is on."""
    comparable = args.scale == "full"
    if args.trace:
        # The traced run needs an untraced one of the same process to
        # compare against; one set-up each keeps the pair inside the
        # driver's per-run time limit.
        runs = [run_untraced(name, args.seed, args.seconds, args.scale,
                             setups=1)]
        runs.append(run_traced(name, args.seed, args.seconds, args.scale,
                               runs[0]))
    else:
        runs = [run_untraced(name, args.seed, args.seconds, args.scale)]
    for run in runs:
        print_run(run)
        save(run, args.out, comparable)
    return runs


def selfcheck(args) -> int:
    """Same seed twice -> identical answers, simulated metrics and
    counters, wall metrics within bound; another seed -> other answers."""
    bad = []
    for name in WORKLOADS:
        first, second, other = (
            run_untraced(name, seed, args.seconds, "smoke", setups=1)
            for seed in (args.seed, args.seed, args.seed + 1))
        for run in (first, second, other):
            bad.extend(f"{name}: {problem}"
                       for problem in run.window.problems)
        if first.window.digest != second.window.digest:
            bad.append(f"{name}: same seed, different answer digests")
        if first.window.sim != second.window.sim:
            bad.append(f"{name}: same seed, different simulated metrics")
        if first.window.counters != second.window.counters:
            bad.append(f"{name}: same seed, different counters")
        if first.window.digest == other.window.digest:
            bad.append(f"{name}: a different seed gave the same answers")
        for key in ("wall_qps", "wall_writes_per_s"):
            if key in first.window.wall:
                a, b = first.window.wall[key], second.window.wall[key]
                if abs(a - b) / max(a, b) > WALL_BOUND:
                    bad.append(f"{name}: {key} {a:.1f} vs {b:.1f} differ "
                               f"by more than {WALL_BOUND:.0%}")
        print(f"selfcheck {name}: digest {first.window.digest[:12]} "
              f"repeats, seed+1 gives {other.window.digest[:12]}")
    for line in bad:
        print(f"SELFCHECK FAILURE: {line}")
    print("selfcheck", "FAILED" if bad else "passed")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.spine", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="window size: op counts are sized for 10 s on "
                        "the reference box and scale with this (never "
                        "below the percentile sample floors)")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1),
                        const=1, default=0,
                        help="also run traced and report per-layer metrics")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: small corpus for local iteration, "
                        'results stamped "comparable": false')
    parser.add_argument("--selfcheck", action="store_true",
                        help="determinism check at smoke scale")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help="directory for result JSON and trace.jsonl "
                        "(default: git-ignored benchmarks/spine/out/)")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if args.selfcheck:
        return selfcheck(args)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    ok = True
    for name in names:
        runs = run_one(name, args)
        results[name] = contract_result(runs[-1])
        results[name]["correct"] = all(run.correct for run in runs)
        ok = ok and results[name]["correct"]
    print(f"({time.perf_counter() - started:.1f} s in all"
          + ("" if args.scale == "full" else ', "comparable": false') + ")")
    # The driver reads the last line: one JSON object for one workload.
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
