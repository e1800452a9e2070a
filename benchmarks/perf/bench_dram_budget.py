"""DRAM-budget benchmark: peak compute DRAM vs quality under a byte cap.

The cluster cache takes a byte cap (``hot_tier_budget_bytes``): its
residents hold at most the cap, a fetched cluster it will not keep is
searched in its wave and dropped (streamed), and the planner sizes each
wave in bytes, so the waves open at once stream at most the cap too.
This harness builds the CI scenario once (200k x 128d, 400 clusters,
batch 256), serves a Zipfian cluster-popularity workload with no cap
(the baseline: every cluster stays resident), then sweeps the cap as a
fraction of the baseline's peak DRAM, and gates the memory frontier:

* **peak DRAM reduction** — some swept cap must cut *peak* compute DRAM
  (the meta-HNSW plus ``ClusterCache.peak_held_bytes``, the most the
  cache held at any point of the run, streams in flight included) by
  >= 70 % against the baseline's peak...
* **recall floor** — ...while keeping >= 95 % of the baseline's
  recall@10...
* **latency ceiling** — ...with p99 simulated per-query latency within
  1.65x of the baseline's (``p99_added_us`` reports the difference).

Each cap's section records its peak and after-run DRAM, p99 and recall.
Every gate prints its verdict, and the report is written either way.
Under ``--ci`` and the full run a violated gate then exits non-zero, so
the CI perf-smoke job doubles as a regression gate and a red run still
uploads the numbers that failed; ``--quick`` is for local iteration and
only reports.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_dram_budget.py           # full
    PYTHONPATH=src python benchmarks/perf/bench_dram_budget.py --ci      # 200k
    PYTHONPATH=src python benchmarks/perf/bench_dram_budget.py --quick   # 30k

Writes ``benchmarks/perf/BENCH_dram_budget.json`` (override with
``--output``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import time

import numpy as np

from repro.cluster import Deployment
from repro.core import DHnswClient, DHnswConfig
from repro.core.partitions import assign_partitions
from repro.datasets import exact_knn, sift1m_like
from repro.workloads import zipfian_cluster_queries

DEFAULT_OUTPUT = pathlib.Path(__file__).parent / "BENCH_dram_budget.json"

#: ``ci`` is the scenario the acceptance criteria name: 200k x 128d in
#: 400 clusters, batch 256.  ``quick`` exists for local iteration;
#: ``full`` approaches the paper's SIFT1M scale.
SCALES = {
    "full": dict(num_vectors=1_000_000, num_clusters=2_000,
                 batch_size=256, batches=8, eval_queries=256),
    "ci": dict(num_vectors=200_000, num_clusters=400,
               batch_size=256, batches=8, eval_queries=256),
    "quick": dict(num_vectors=30_000, num_clusters=120,
                  batch_size=128, batches=6, eval_queries=128),
}

#: Swept byte caps, as fractions of the baseline's peak compute DRAM.
BUDGET_FRACTIONS = [0.05, 0.15, 0.25]

#: Batches excluded from the latency percentile: the first few batches
#: pay cold-start fetches on both sides of the comparison, and the gate
#: is about *steady-state* p99.
WARMUP_BATCHES = 3

#: Acceptance thresholds, unchanged since they gated the retired PQ cold
#: tier (on DRAM after the run, which cannot see a peak; this gate reads
#: the peak, so it is the stricter one).
MIN_DRAM_REDUCTION = 0.70
MIN_RECALL_RATIO = 0.95
MAX_P99_RATIO = 1.65


def check(condition: bool, what: str, failures: list[str]) -> bool:
    """Print one gate's verdict; a violated gate is added to
    ``failures``, which fail the run once the report is written."""
    print(f"gate {'met' if condition else 'NOT MET'}: {what}")
    if not condition:
        failures.append(what)
    return condition


def recall_at_10(ids: np.ndarray, ground_truth: np.ndarray) -> float:
    hits = sum(len(np.intersect1d(row, truth))
               for row, truth in zip(ids, ground_truth))
    return hits / ground_truth.size


def make_workload(vectors, assignments, scale, seed):
    """Zipfian cluster-popularity batches + one held-out eval batch."""
    rng = np.random.default_rng(seed)
    batches = [zipfian_cluster_queries(vectors, assignments,
                                       scale["batch_size"], rng,
                                       skew=1.2, noise_std=0.01)
               for _ in range(scale["batches"])]
    eval_batch = zipfian_cluster_queries(vectors, assignments,
                                         scale["eval_queries"], rng,
                                         skew=1.2, noise_std=0.01)
    return batches, eval_batch


def serve(deployment, config, batches, eval_batch, ground_truth, name):
    """Run the workload on one client; return the measured section."""
    client = DHnswClient(deployment.layout, deployment.meta, config,
                         cost_model=deployment.cost_model, name=name)
    try:
        fixed = client.dram_used_bytes
        latencies = []
        waves = 0
        wall_start = time.perf_counter()
        for index, batch in enumerate(batches):
            result = client.search_batch(batch, k=10)
            if index >= WARMUP_BATCHES:
                latencies.append(result.latency_per_query_us)
            waves += result.waves
        wall = time.perf_counter() - wall_start
        final = client.search_batch(eval_batch, k=10)
        latencies.append(final.latency_per_query_us)
        waves += final.waves
        ids = np.stack([r.ids for r in final.results])
        cache = client.cache
        return {
            "dram_peak_bytes": fixed + cache.peak_held_bytes,
            "dram_after_bytes": client.dram_used_bytes,
            "cached_bytes": cache.cached_bytes,
            "recall_at_10": round(recall_at_10(ids, ground_truth), 4),
            "p99_latency_per_query_us": round(
                float(np.percentile(latencies, 99)), 2),
            "mean_latency_per_query_us": round(
                float(np.mean(latencies)), 2),
            "wall_seconds": round(wall, 2),
            "waves_per_batch": round(waves / (len(batches) + 1), 2),
            "cache_evictions": cache.evictions,
            "cache_streamed": cache.streamed,
            "resident_clusters": len(cache),
        }
    finally:
        client.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--ci", action="store_true",
                       help="200k-vector budget-smoke run")
    group.add_argument("--quick", action="store_true",
                       help="30k-vector local iteration run")
    parser.add_argument("--output", type=pathlib.Path,
                        default=DEFAULT_OUTPUT)
    args = parser.parse_args()
    mode = "ci" if args.ci else "quick" if args.quick else "full"
    scale = SCALES[mode]
    enforce = mode != "quick"
    failures: list[str] = []

    dataset = sift1m_like(num_vectors=scale["num_vectors"],
                          num_queries=scale["eval_queries"],
                          num_clusters=scale["num_clusters"],
                          gt_k=10, seed=42)
    config = DHnswConfig(num_representatives=scale["num_clusters"],
                         nprobe=4, ef_meta=32, cache_fraction=1.0,
                         overflow_capacity_records=64, seed=42)

    build_start = time.perf_counter()
    deployment = Deployment(dataset.vectors, config,
                            simulate_link_contention=False)
    build_s = time.perf_counter() - build_start

    assignments = assign_partitions(dataset.vectors,
                                    deployment.meta).assignments
    batches, eval_batch = make_workload(dataset.vectors, assignments,
                                        scale, seed=7)
    ground_truth = exact_knn(dataset.vectors, eval_batch, 10)

    # Baseline: no byte cap, the whole working set resident.
    baseline = serve(deployment, config, batches, eval_batch, ground_truth,
                     "baseline")
    baseline_dram = baseline["dram_peak_bytes"]

    sweep = []
    for fraction in BUDGET_FRACTIONS:
        budget = int(baseline_dram * fraction)
        section = serve(deployment,
                        config.replace(hot_tier_budget_bytes=budget),
                        batches, eval_batch, ground_truth,
                        f"capped-{fraction}")
        section["budget_fraction"] = fraction
        section["hot_tier_budget_bytes"] = budget
        section["dram_reduction"] = round(
            1.0 - section["dram_peak_bytes"] / baseline_dram, 4)
        section["dram_after_reduction"] = round(
            1.0 - section["dram_after_bytes"]
            / baseline["dram_after_bytes"], 4)
        section["recall_ratio"] = round(
            section["recall_at_10"] / baseline["recall_at_10"], 4)
        section["p99_ratio"] = round(
            section["p99_latency_per_query_us"]
            / baseline["p99_latency_per_query_us"], 4)
        section["p99_added_us"] = round(
            section["p99_latency_per_query_us"]
            - baseline["p99_latency_per_query_us"], 2)
        sweep.append(section)

    passing = [s for s in sweep
               if s["dram_reduction"] >= MIN_DRAM_REDUCTION
               and s["recall_ratio"] >= MIN_RECALL_RATIO
               and s["p99_ratio"] <= MAX_P99_RATIO]
    passed = check(bool(passing),
                   f"a swept cap reaches {MIN_DRAM_REDUCTION:.0%} peak DRAM "
                   f"reduction at >= {MIN_RECALL_RATIO:.0%} relative "
                   f"recall@10 and p99 <= {MAX_P99_RATIO}x (sweep: "
                   + "; ".join(f"{s['budget_fraction']}: "
                               f"peak dram -{s['dram_reduction']:.1%}, "
                               f"recall x{s['recall_ratio']:.3f}, "
                               f"p99 x{s['p99_ratio']:.2f}" for s in sweep)
                   + ")", failures)
    headline = max(passing or sweep, key=lambda s: s["dram_reduction"])

    report = {
        "benchmark": "peak compute DRAM under a cluster-cache byte cap, "
                     "Zipfian cluster skew",
        "mode": mode,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "dataset": {
            "kind": dataset.name,
            "num_vectors": int(dataset.num_vectors),
            "dim": int(dataset.dim),
            "num_clusters": scale["num_clusters"],
            "batch_size": scale["batch_size"],
            "batches": scale["batches"],
            "zipf_skew": 1.2,
            "seed": 42,
        },
        "build_seconds": round(build_s, 1),
        "baseline": baseline,
        "sweep": sweep,
        "headline": {
            "budget_fraction": headline["budget_fraction"],
            "dram_reduction": headline["dram_reduction"],
            "recall_ratio": headline["recall_ratio"],
            "p99_ratio": headline["p99_ratio"],
            "p99_added_us": headline["p99_added_us"],
        },
        "acceptance": {
            "min_dram_reduction": MIN_DRAM_REDUCTION,
            "min_recall_ratio": MIN_RECALL_RATIO,
            "max_p99_ratio": MAX_P99_RATIO,
            "passed": passed,
        },
    }

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({k: report[k] for k in
                      ("baseline", "sweep", "headline", "acceptance")},
                     indent=2))
    print(f"\nwrote {args.output}")
    if failures and enforce:
        raise SystemExit("ACCEPTANCE FAILURE: " + "; ".join(failures))


if __name__ == "__main__":
    main()
