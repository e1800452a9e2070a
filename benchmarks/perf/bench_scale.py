"""Million-vector scale benchmark over the zero-copy memory substrate.

PR 6 rebuilt the registered-region substrate around mmap-backed buffers
with zero-copy READ payloads (memoryview slices decoded in place by
``np.frombuffer``) and streamed dataset generation / ground truth, so the
paper's headline scale — SIFT1M, 1M x 128d — fits through the simulator
without duplicating the corpus on every fetch.  This harness stands the
scenario up end-to-end and gates:

* **build wall-clock** — partition + build + serialize + publish of the
  whole corpus must finish inside the scale's budget;
* **steady-state QPS** — wall-clock query throughput of the pipelined
  client over repeated batches;
* **peak RSS** — the process-wide high-water mark must stay inside a
  budget proportional to the corpus (the pre-PR substrate's copy-per-READ
  behaviour blows well past it);
* **bit-identical answers** — the engine with its look-ahead on
  (``pipeline_waves``) against it off (both pinned to the test-side
  transcriptions of the loop by tier-1 equivalence tests), plus a
  zero-copy proof: a served cluster's vector store must share memory
  with the registered region.

Any violated gate exits non-zero, so the CI perf-smoke job doubles as a
regression gate.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_scale.py            # 1M
    PYTHONPATH=src python benchmarks/perf/bench_scale.py --ci       # 200k
    PYTHONPATH=src python benchmarks/perf/bench_scale.py --quick    # 50k

Writes ``benchmarks/perf/BENCH_scale.json`` (override with ``--output``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import time

import numpy as np

from repro.cluster import Deployment
from repro.core import DHnswClient, DHnswConfig
from repro.datasets import sift1m_like
from repro.telemetry import peak_rss_bytes

DEFAULT_OUTPUT = pathlib.Path(__file__).parent / "BENCH_scale.json"

#: Per-mode scenario sizes and acceptance budgets.  ``full`` is the
#: paper's SIFT1M scale; ``ci`` is the scale-smoke size the workflow
#: runs; ``quick`` exists for local iteration.  Budgets are calibrated
#: for a small CI runner (1-2 CPUs) with ~3x headroom over measured.
SCALES = {
    "full": dict(num_vectors=1_000_000, num_queries=512, gen_clusters=2_000,
                 batch_size=256, reps=3,
                 build_budget_s=14_400.0, min_qps=20.0,
                 rss_budget_bytes=16 * 2**30),
    "ci": dict(num_vectors=200_000, num_queries=256, gen_clusters=400,
               batch_size=256, reps=3,
               build_budget_s=3_600.0, min_qps=20.0,
               rss_budget_bytes=6 * 2**30),
    "quick": dict(num_vectors=50_000, num_queries=128, gen_clusters=150,
                  batch_size=128, reps=3,
                  build_budget_s=1_200.0, min_qps=20.0,
                  rss_budget_bytes=4 * 2**30),
}


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"ACCEPTANCE FAILURE: {what}")


def recall_at_k(ids: np.ndarray, ground_truth: np.ndarray) -> float:
    """Mean fraction of exact neighbours recovered per query."""
    hits = sum(len(np.intersect1d(row, truth))
               for row, truth in zip(ids, ground_truth))
    return hits / ground_truth.size


def run_queries(deployment, queries, overrides, reps):
    """Measure steady-state serving for one configuration."""
    config = deployment.config.replace(cache_fraction=0.10, **overrides)
    client = DHnswClient(deployment.layout, deployment.meta, config,
                         cost_model=deployment.cost_model)
    try:
        client.search_batch(queries, k=10, ef_search=32)  # warm-up
        wall = float("inf")
        batch = None
        for _ in range(reps):
            start = time.perf_counter()
            batch = client.search_batch(queries, k=10, ef_search=32)
            wall = min(wall, time.perf_counter() - start)
        ids = np.stack([result.ids for result in batch.results])
        distances = np.stack([result.distances for result in batch.results])
        section = {
            "pipeline_waves": bool(config.pipeline_waves),
            "wall_seconds": round(wall, 4),
            "wall_qps": round(len(queries) / wall, 1),
            "simulated_latency_per_query_us": round(
                batch.latency_per_query_us, 3),
            "sub_evals": batch.sub_evals,
            "cache_misses": batch.cache_misses,
        }
        return section, ids, distances, client
    finally:
        # The zero-copy probe below needs the last client's cache alive;
        # callers close it.
        pass


def zero_copy_probe(deployment, client) -> dict:
    """Prove a served cluster's vectors alias the registered region."""
    region = deployment.layout.region
    cached = None
    for cluster_id in range(deployment.layout.metadata.num_clusters):
        cached = client.cache.peek(cluster_id)
        if cached is not None:
            break
    check(cached is not None, "no cached cluster to probe after serving")
    vectors = cached.index.graph.vectors
    region_array = np.frombuffer(region.buffer, dtype=np.uint8)
    shares = bool(np.shares_memory(vectors, region_array))
    check(shares, "decoded cluster vectors do not alias the registered "
                  "region — a copy crept back into the fetch path")
    check(not vectors.flags.writeable,
          "decoded vector store is writable — region memory is exposed")
    return {"decoded_shares_region_memory": shares,
            "decoded_store_read_only": not vectors.flags.writeable}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--ci", action="store_true",
                       help="200k-vector scale-smoke run")
    group.add_argument("--quick", action="store_true",
                       help="50k-vector local iteration run")
    parser.add_argument("--fvecs-dir", type=pathlib.Path, default=None,
                        help="directory with real SIFT1M .fvecs/.ivecs "
                             "files (synthetic twin when omitted)")
    parser.add_argument("--output", type=pathlib.Path,
                        default=DEFAULT_OUTPUT)
    args = parser.parse_args()
    mode = "ci" if args.ci else "quick" if args.quick else "full"
    scale = SCALES[mode]
    cpu_count = os.cpu_count() or 1

    gen_start = time.perf_counter()
    dataset = sift1m_like(num_vectors=scale["num_vectors"],
                          num_queries=scale["num_queries"],
                          num_clusters=scale["gen_clusters"],
                          gt_k=10, seed=42, fvecs_dir=args.fvecs_dir)
    gen_seconds = time.perf_counter() - gen_start

    config = DHnswConfig(nprobe=4, ef_meta=32, cache_fraction=0.10,
                         overflow_capacity_records=64, seed=42)
    build_start = time.perf_counter()
    deployment = Deployment(dataset.vectors, config,
                            simulate_link_contention=False)
    build_seconds = time.perf_counter() - build_start
    check(build_seconds <= scale["build_budget_s"],
          f"build took {build_seconds:.0f}s, budget is "
          f"{scale['build_budget_s']:.0f}s")

    queries = dataset.queries[:scale["batch_size"]]
    serial_section, serial_ids, serial_dists, serial_client = run_queries(
        deployment, queries, {"pipeline_waves": False}, scale["reps"])
    serial_client.close()
    piped_section, piped_ids, piped_dists, piped_client = run_queries(
        deployment, queries, {"pipeline_waves": True}, scale["reps"])

    check(np.array_equal(serial_ids, piped_ids)
          and np.array_equal(serial_dists, piped_dists),
          "pipelined results differ from look-ahead off")
    check(piped_section["wall_qps"] >= scale["min_qps"],
          f"steady-state {piped_section['wall_qps']:.1f} QPS below the "
          f"{scale['min_qps']:.1f} QPS floor")

    zero_copy = zero_copy_probe(deployment, piped_client)
    piped_client.close()

    peak_rss = peak_rss_bytes()
    check(peak_rss <= scale["rss_budget_bytes"],
          f"peak RSS {peak_rss / 2**30:.2f} GiB over the "
          f"{scale['rss_budget_bytes'] / 2**30:.2f} GiB budget")

    recall = recall_at_k(piped_ids, dataset.ground_truth[:len(queries)])
    report = {
        "benchmark": "million-vector scale-up on the zero-copy substrate",
        "mode": mode,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": cpu_count,
        },
        "dataset": {
            "kind": dataset.name,
            "num_vectors": int(dataset.num_vectors),
            "dim": int(dataset.dim),
            "num_queries": len(queries),
            "seed": 42,
        },
        "generate_seconds": round(gen_seconds, 1),
        "build_seconds": round(build_seconds, 1),
        "build_budget_seconds": scale["build_budget_s"],
        "registered_bytes": deployment.memory_node.registered_bytes,
        "peak_rss_bytes": peak_rss,
        "rss_budget_bytes": scale["rss_budget_bytes"],
        "reps_best_of": scale["reps"],
        "sections": {"serial": serial_section, "pipelined": piped_section},
        "recall_at_10": round(recall, 4),
        "zero_copy": zero_copy,
        "acceptance": {
            "build_within_budget": True,
            "qps_floor": scale["min_qps"],
            "qps_measured": piped_section["wall_qps"],
            "rss_within_budget": True,
            "bit_identical": True,
            "zero_copy_proven": True,
        },
    }

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({k: report[k] for k in
                      ("build_seconds", "registered_bytes",
                       "peak_rss_bytes", "sections", "recall_at_10",
                       "zero_copy", "acceptance")}, indent=2))
    print(f"\nwrote {args.output}")


if __name__ == "__main__":
    main()
