"""Front-door benchmark: dynamic batching vs per-query dispatch.

The front door's claim is that coalescing independently arriving
single-query requests into waves (doorbell batching + cross-query
cluster dedup in the engine) buys steady-state throughput without
touching answers.  This harness runs one arrival sequence through two
front doors over the same build —

* ``batched``   — ``max_batch=64``, ``max_wait_us=2000`` (the default
  operating point), and
* ``per_query`` — ``max_batch=1``, ``max_wait_us=0`` (every request
  dispatches alone, the pre-front-door serving model)

— plus a moderate-rate steady scenario, and asserts the acceptance
criteria of the front-door PR:

* saturation throughput of ``batched`` is at least 2x ``per_query``
  at identical recall (answers are bit-identical, so recall is too);
* zero wrong answers: every front-door outcome equals a direct
  ``search_batch`` of the same queries, bit for bit;
* at the steady operating point, p99 queue delay stays within the
  ``max_wait_us`` budget;
* and its p99 *end-to-end* latency stays below that budget plus the
  median wave's service time: the request that waited out the whole
  budget must not also sit through its whole wave (earliest-deadline
  wave order + per-request completion; with every answer released at its
  wave's end the tail is budget + a *slow* wave's service and this
  fails);
* running the steady scenario twice replays the identical schedule
  and latency histogram (simulated time: same seed ⇒ same numbers).

Where latency goes is reported beside the gates: per phase, the p50 and
p99 of the queue wait (the batching budget) and of the time in the wave
(dispatch to the request's own completion), in ``latency_split``.  Each
scenario also reports what waiting buys: ``immediate_share``, the share
of requests served at once because every cluster they probe was
cache-resident when they were admitted, and
``shared_probes_per_wave``, the probes per wave whose cluster a member
queued earlier in the same wave also probes (the fetches a wave shares).

Any violated criterion exits non-zero, so the CI smoke job doubles as a
regression gate.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_frontdoor.py        # full
    PYTHONPATH=src python benchmarks/perf/bench_frontdoor.py --ci   # CI

Writes ``benchmarks/perf/BENCH_frontdoor.json`` (``--output`` overrides).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import time

import numpy as np

from repro.cluster import Deployment
from repro.core import DHnswConfig
from repro.datasets import sift_like
from repro.frontdoor import (FrontDoor, FrontDoorConfig, make_requests,
                             poisson_arrivals)
from repro.metrics import recall_at_k

DEFAULT_OUTPUT = pathlib.Path(__file__).parent / "BENCH_frontdoor.json"

#: The CI corpus is 6000 vectors, not 2000: partitions are derived
#: (corpus // 300), and 2000 gave 6 of them under a cache of *one* — with
#: every request probing four of the six, each needs two thirds of every
#: wave and no wave order can release anyone early, so the steady tail
#: gate would measure the build, not the schedule.  6000 gives 20
#: partitions and a cache of 2 (full: 66 and 7).
SCALES = {
    "full": dict(num_vectors=20000, num_queries=256, num_clusters=100,
                 steady_requests=1500, saturation_requests=768),
    "quick": dict(num_vectors=6000, num_queries=64, num_clusters=20,
                  steady_requests=400, saturation_requests=256),
}

#: The steady operating point: moderate offered rate, default knobs.
STEADY_RATE_QPS = 2000.0
#: Saturation offered rate: far beyond either door's capacity, so
#: measured throughput is service capacity, not the arrival process.
SATURATION_RATE_QPS = 100_000.0

BATCHED = FrontDoorConfig(max_wait_us=2000.0, max_batch=64)
PER_QUERY = FrontDoorConfig(max_wait_us=0.0, max_batch=1)

K = 10
EF_SEARCH = 32
TENANTS = ("alpha", "beta", "gamma")


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"ACCEPTANCE FAILURE: {what}")


def fresh_door(deployment, config, name: str) -> FrontDoor:
    client = deployment.make_client(deployment.client().scheme, name=name)
    return FrontDoor(client, config)


def median_service_us(report) -> float:
    """Median simulated time the engine spent on one wave."""
    return float(np.median([w.service_us for w in report.waves]))


def shared_probes_per_wave(deployment, report, requests) -> float:
    """Mean, over waves, of the probes whose cluster a member queued
    (arrived) earlier in the same wave also probes."""
    if not report.waves:
        return 0.0
    client = deployment.make_client(deployment.client().scheme,
                                    name="routes")
    walk = client.engine.planner.walk(np.stack([r.query for r in requests]))
    routes = {r.request_id: clusters
              for r, clusters in zip(requests, walk.clusters)}
    arrival = {r.request_id: (r.arrival_us, r.request_id) for r in requests}
    shared = 0
    for wave in report.waves:
        seen: set[int] = set()
        for request_id in sorted(wave.request_ids, key=arrival.get):
            shared += sum(cid in seen for cid in routes[request_id])
            seen.update(routes[request_id])
    return shared / len(report.waves)


def run_door(deployment, config, name: str, requests):
    """One load run on a fresh client; returns (section, LoadReport)."""
    door = fresh_door(deployment, config, name)
    wall_start = time.perf_counter()
    report = door.run(requests)
    wall = time.perf_counter() - wall_start
    queue = report.queue_delay_percentiles()
    in_wave = report.in_wave_percentiles()
    latency = report.latency_percentiles()
    section = {
        "max_wait_us": config.max_wait_us,
        "max_batch": config.max_batch,
        "offered": report.offered,
        "served": report.served,
        "waves": len(report.waves),
        "mean_occupancy": round(report.mean_occupancy, 2),
        "max_occupancy": report.max_occupancy,
        "throughput_qps": round(report.throughput_qps, 1),
        "queue_delay_us": {key: round(value, 1)
                           for key, value in queue.items()},
        "in_wave_us": {key: round(value, 1)
                       for key, value in in_wave.items()},
        "latency_us": {key: round(value, 1)
                       for key, value in latency.items()},
        "median_wave_service_us": round(median_service_us(report), 1),
        "immediate_serves": len(report.immediate),
        "immediate_share": round(report.immediate_share, 4),
        "shared_probes_per_wave": round(
            shared_probes_per_wave(deployment, report, requests), 2),
        "clusters_fetched": sum(w.clusters_fetched for w in report.waves),
        "harness_wall_seconds": round(wall, 2),
    }
    return section, report


def measure_recall(report, dataset, k: int) -> float:
    """Recall@k of a load report against the dataset's ground truth.

    ``make_requests`` consumes query rows cyclically, so outcome *i*
    answers ``queries[i % num_queries]``.
    """
    num_queries = len(dataset.queries)
    ids = np.stack([outcome.ids for outcome in report.outcomes])
    truth = np.stack([dataset.ground_truth[i % num_queries]
                      for i in range(len(report.outcomes))])
    return float(recall_at_k(ids, truth, k))


def assert_bit_identity(deployment, report, requests) -> None:
    oracle = deployment.make_client(deployment.client().scheme,
                                    name="oracle")
    queries = np.stack([r.query for r in requests])
    direct = oracle.search_batch(queries, K, ef_search=EF_SEARCH)
    for outcome, result in zip(report.outcomes, direct.results):
        check(np.array_equal(outcome.ids, result.ids)
              and np.array_equal(outcome.distances, result.distances),
              f"request #{outcome.request.request_id} differs from a "
              f"direct search_batch — coalescing changed an answer")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--ci", "--quick", dest="quick",
                        action="store_true",
                        help="CI-sized run (small build, fewer requests)")
    parser.add_argument("--output", type=pathlib.Path,
                        default=DEFAULT_OUTPUT)
    args = parser.parse_args()
    mode = "quick" if args.quick else "full"
    scale = SCALES[mode]

    build_start = time.perf_counter()
    dataset = sift_like(num_vectors=scale["num_vectors"],
                        num_queries=scale["num_queries"],
                        num_clusters=scale["num_clusters"],
                        gt_k=K, seed=42)
    config = DHnswConfig(nprobe=4, ef_meta=32, cache_fraction=0.10,
                         overflow_capacity_records=64,
                         seed=42)
    deployment = Deployment(dataset.vectors, config,
                            simulate_link_contention=False)
    build_seconds = time.perf_counter() - build_start

    rng = np.random.default_rng(7)
    steady_requests = make_requests(
        poisson_arrivals(STEADY_RATE_QPS, scale["steady_requests"], rng),
        dataset.queries, k=K, slo_us=1e9, rng=rng, tenants=TENANTS,
        ef_search=EF_SEARCH)
    saturation_requests = make_requests(
        poisson_arrivals(SATURATION_RATE_QPS,
                         scale["saturation_requests"], rng),
        dataset.queries, k=K, slo_us=1e9, rng=rng, tenants=TENANTS,
        ef_search=EF_SEARCH)

    sections = {}

    # -- steady state: latency budget + determinism + bit identity -------
    sections["steady"], steady = run_door(
        deployment, BATCHED, "steady", steady_requests)
    _, steady_replay = run_door(
        deployment, BATCHED, "steady-replay", steady_requests)

    check(steady.served == steady.offered,
          "steady scenario shed requests — lower the offered rate")
    p99 = steady.queue_delay_percentiles()["p99"]
    check(p99 <= BATCHED.max_wait_us * (1 + 1e-9),
          f"steady p99 queue delay {p99:.1f}us exceeds the "
          f"{BATCHED.max_wait_us:.0f}us wait budget")
    p99_latency = steady.latency_percentiles()["p99"]
    median_service = median_service_us(steady)
    check(p99_latency < BATCHED.max_wait_us + median_service,
          f"steady p99 latency {p99_latency:.1f}us is not below the "
          f"{BATCHED.max_wait_us:.0f}us wait budget + the median wave's "
          f"{median_service:.1f}us service — the oldest request sat "
          f"through its whole wave")
    check(steady.schedule_signature() == steady_replay.schedule_signature(),
          "same-seed steady runs produced different schedules")
    check(steady.latency_histogram() == steady_replay.latency_histogram(),
          "same-seed steady runs produced different latency histograms")
    assert_bit_identity(deployment, steady, steady_requests)

    # -- saturation: batched vs per-query throughput ---------------------
    sections["saturation_batched"], saturated = run_door(
        deployment, BATCHED, "saturated", saturation_requests)
    sections["saturation_per_query"], per_query = run_door(
        deployment, PER_QUERY, "per-query", saturation_requests)

    check(saturated.served == per_query.served == len(saturation_requests),
          "saturation scenario shed requests")
    assert_bit_identity(deployment, saturated, saturation_requests)
    recall_batched = measure_recall(saturated, dataset, K)
    recall_per_query = measure_recall(per_query, dataset, K)
    check(recall_batched == recall_per_query,
          f"recall diverged: batched {recall_batched:.4f} vs per-query "
          f"{recall_per_query:.4f}")
    speedup = (saturated.throughput_qps / per_query.throughput_qps
               if per_query.throughput_qps > 0 else float("inf"))
    check(speedup >= 2.0,
          f"batched door gave only {speedup:.2f}x the per-query "
          f"throughput (gate: >= 2x at equal recall)")

    latency_split = {
        phase: {"queue_p50_us": section["queue_delay_us"]["p50"],
                "queue_p99_us": section["queue_delay_us"]["p99"],
                "in_wave_p50_us": section["in_wave_us"]["p50"],
                "in_wave_p99_us": section["in_wave_us"]["p99"]}
        for phase, section in sections.items()}
    acceptance = {
        "steady_p99_queue_delay_us": round(p99, 1),
        "steady_wait_budget_us": BATCHED.max_wait_us,
        "steady_p99_latency_us": round(p99_latency, 1),
        "steady_median_wave_service_us": round(median_service, 1),
        "steady_p99_latency_margin_us": round(
            BATCHED.max_wait_us + median_service - p99_latency, 1),
        "throughput_speedup_vs_per_query": round(speedup, 2),
        "recall_at_10": round(recall_batched, 4),
        "bit_identical": True,
        "schedule_replay": True,
    }
    report = {
        "benchmark": "front door: dynamic batching vs per-query dispatch",
        "mode": mode,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "dataset": {
            "kind": "sift_like",
            "num_vectors": scale["num_vectors"],
            "dim": dataset.vectors.shape[1],
            "num_clusters": scale["num_clusters"],
            "k": K,
            "ef_search": EF_SEARCH,
            "seed": 42,
        },
        "workload": {
            "steady_rate_qps": STEADY_RATE_QPS,
            "saturation_rate_qps": SATURATION_RATE_QPS,
            "steady_requests": scale["steady_requests"],
            "saturation_requests": scale["saturation_requests"],
            "tenants": list(TENANTS),
            "arrival_seed": 7,
        },
        "build_seconds": round(build_seconds, 1),
        "sections": sections,
        "latency_split": latency_split,
        "acceptance": acceptance,
    }

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({"sections": sections, "latency_split": latency_split,
                      "acceptance": acceptance}, indent=2))
    print(f"\nwrote {args.output}")


if __name__ == "__main__":
    main()
