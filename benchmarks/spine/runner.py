"""One run of one workload: set-ups, measured window, metric assembly.

End-to-end metrics come from an untraced run (the window on the first of
three set-ups).  A traced run repeats set-up and window once with
:class:`~benchmarks.spine.tracer.Tracer` wrappers installed and must
reproduce the untraced run's answers and simulated numbers exactly.
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import time

from repro.telemetry import peak_rss_bytes

from benchmarks.spine.layers import layer_metrics
from benchmarks.spine.tracer import Tracer
from benchmarks.spine.workloads import SCALES, WORKLOADS, Window

__all__ = ["END_TO_END", "RECALL_FLOOR", "SETUPS", "Run", "run_traced",
           "run_untraced"]

#: (name, unit, better, regression bound as a share of the parent's
#: median) — the ``end_to_end`` list of ``BENCHMARK.json``.  Every
#: workload reports every one of them.  A bound is at least three times
#: the widest quartile spread seen over ten seeds on any workload: the
#: simulated metrics and recall are exact for a seed and move 0.2-2%
#: between seeds (widest on ``frontdoor_open``, where the seed draws the
#: Poisson arrivals); wall metrics move 2-8% on this shared box.
END_TO_END: list[tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_qps", "1/s", "higher", 0.25),
    ("window_wall_s", "s", "lower", 0.25),
    ("sim_busy_ms", "ms", "lower", 0.03),
    ("sim_us_per_query_p50", "us", "lower", 0.08),
    ("sim_us_per_query_p95", "us", "lower", 0.08),
    ("sim_latency_p50_us", "us", "lower", 0.08),
    ("sim_latency_p99_us", "us", "lower", 0.08),
    ("recall_at_10", "fraction", "higher", 0.01),
    ("peak_rss_mb", "MiB", "lower", 0.10),
]
#: Workload-specific end-to-end numbers the issue names; printed (and
#: compared by ``--selfcheck``) but carried in the per-layer list of
#: ``BENCHMARK.json`` because its end-to-end list must be the same for
#: every workload and never read 0.
EXTRA_END_TO_END = {
    "wall_writes_per_s": "1/s", "sim_us_per_write_p50": "us",
    "sim_us_per_write_p99": "us", "max_rate_in_slo_qps": "1/s",
}
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: A run whose mean recall@10 falls below this is incorrect, whatever
#: its per-op checks say (seed-code recall is ~0.98 on every workload).
RECALL_FLOOR = 0.80


@dataclasses.dataclass
class Run:
    workload: str
    seed: int
    scale: str
    seconds: float
    traced: bool
    setup_s: list[float]
    window: Window
    end_to_end: dict[str, float] = dataclasses.field(default_factory=dict)
    per_layer: dict[str, float] = dataclasses.field(default_factory=dict)
    tracer: Tracer | None = None

    @property
    def correct(self) -> bool:
        return self.window.failed == 0 and not self.window.problems

    @property
    def failed_share(self) -> float:
        return self.window.failed / max(self.window.attempted, 1)


def run_untraced(name: str, seed: int, seconds: float, scale: str,
                 setups: int = SETUPS) -> Run:
    workload = WORKLOADS[name]
    sizes = SCALES[scale]

    def timed_setup():
        gc.collect()
        start = time.perf_counter()
        fixture = workload.setup(seed, sizes, seconds, None)
        return fixture, time.perf_counter() - start

    # The window runs on the first set-up and peak RSS is read right
    # after it: the later set-ups exist only to time ``setup_s``, and how
    # much of their garbage the allocator hands back to the OS differs
    # from run to run (125 vs 182 MiB for the same seed).
    fixture, first_s = timed_setup()
    try:
        window = workload.measure(fixture, None)
    finally:
        fixture.close()
    peak_rss_mb = peak_rss_bytes() / 2 ** 20
    setup_s = [first_s]
    for _ in range(setups - 1):
        del fixture
        fixture, again_s = timed_setup()
        fixture.close()
        setup_s.append(again_s)
    run = Run(name, seed, scale, seconds, False, setup_s, window)
    if window.recall_at_10 < RECALL_FLOOR:
        window.problems.append(
            f"recall@10 {window.recall_at_10:.4f} below {RECALL_FLOOR}")
    run.end_to_end = {
        "setup_s": statistics.median(setup_s),
        "wall_qps": window.wall["wall_qps"],
        "window_wall_s": window.wall["window_wall_s"],
        "recall_at_10": window.recall_at_10,
        "peak_rss_mb": peak_rss_mb,
        **{key: window.sim[key] for key, _, _, _ in END_TO_END
           if key.startswith("sim_")},
    }
    return run


def run_traced(name: str, seed: int, seconds: float, scale: str,
               untraced: Run) -> Run:
    """Repeat ``untraced`` with spans on; fills ``per_layer``."""
    workload = WORKLOADS[name]
    tracer = Tracer()
    tracer.install_shared()
    tracer.install_build()
    fixture = None
    try:
        gc.collect()
        start = time.perf_counter()
        fixture = workload.setup(seed, SCALES[scale], seconds, tracer)
        setup_s = [time.perf_counter() - start]
        window_start = len(tracer.spans)
        window = workload.measure(fixture, tracer)
    finally:
        tracer.restore()
        if fixture is not None:
            fixture.close()
    run = Run(name, seed, scale, seconds, True, setup_s, window,
              tracer=tracer)
    before = untraced.window
    if window.digest != before.digest:
        window.problems.append("traced answers differ from untraced")
    for kind in ("sim", "counters"):
        got, want = getattr(window, kind), getattr(before, kind)
        if got != want:
            window.problems.append(
                f"traced {kind} differ from untraced: " + ", ".join(
                    f"{key} {want.get(key)} -> {got.get(key)}"
                    for key in sorted(set(got) | set(want))
                    if got.get(key) != want.get(key)))
    run.per_layer = layer_metrics(window, before, tracer, window_start,
                                  fixture.deployment)
    shares = sum(value for key, value in run.per_layer.items()
                 if key.endswith("wall_share"))
    if abs(shares - 1.0) > 0.02:
        window.problems.append(f"wall shares sum to {shares:.3f}, not 1")
    return run
