"""Wall-clock + simulated-latency benchmark of the pipelined serving engine.

The serving engine pipelines its cluster READs, searches clusters in the
serving process and merges top-k candidates vectorized; the pipelined
schedule is ``WaveExecutor``'s ready-list loop, which keeps a wave's
READ in flight behind routing, hit searches and the previous wave's
searches.  This harness runs the acceptance scenario
(20k vectors, batch 256, efSearch 32) in both serving configurations:

* ``serial``    — look-ahead off (``pipeline_waves=False``),
* ``pipelined`` — look-ahead on,

and asserts the acceptance criteria:

* both configurations return bit-identical results and identical
  ``sub_evals`` (scheduling never changes answers);
* with the look-ahead off (``serial``) no wire time hides: every READ
  lands before anything is searched, so ``overlapped_time_us`` is 0;
* with the look-ahead on, the simulated end-to-end batch latency improves
  over look-ahead off by at least the wire time the transport
  measured as hidden — ``overlapped_time_us``, which counts wire time
  hidden behind any CPU work: routing, a hit's search or a wave's (that
  the measurement equals what the test-side transcription of the loop
  adds up, and that time hidden behind hits lands in it, is pinned in
  ``tests/core/test_tuning_and_pipeline.py``);
* a fetch moves what is live, not what is reserved: on this never-written
  layout every cluster's READ is exactly its blob, the tail word and the
  fetcher's slack slots (``fetch_audit``) — the whole-area READ must not
  come back silently.

Any violated criterion exits non-zero, so the CI smoke job doubles as a
regression gate.  Wall-clock numbers are recorded, not gated.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_serve.py           # full
    PYTHONPATH=src python benchmarks/perf/bench_serve.py --quick   # CI

Writes ``benchmarks/perf/BENCH_serve.json`` (override with ``--output``).
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
from repro.datasets import sift_like
from repro.layout.group_layout import OVERFLOW_TAIL_BYTES, cluster_read_extent
from repro.layout.serializer import overflow_record_size
from repro.serving.fetcher import TAIL_SLACK_SLOTS

DEFAULT_OUTPUT = pathlib.Path(__file__).parent / "BENCH_serve.json"

#: The acceptance scenario (full) and a CI-sized shrink (quick).
SCALES = {
    "full": dict(num_vectors=20000, num_queries=256, num_clusters=100,
                 batch_size=256, reps=5),
    "quick": dict(num_vectors=2000, num_queries=64, num_clusters=20,
                  batch_size=64, reps=3),
}

#: (label, config overrides) for every serving configuration measured.
CONFIGS = [
    ("serial", {"pipeline_waves": False}),
    ("pipelined", {"pipeline_waves": True}),
]


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"ACCEPTANCE FAILURE: {what}")


def run_config(deployment, queries, overrides, reps):
    """Measure one serving configuration.

    Every configuration executes the identical sequence (one warm-up
    batch, then ``reps`` timed batches) so cache evolution — and with it
    every simulated number — is comparable across configurations.
    Returns (section dict, last BatchResult).
    """
    config = deployment.config.replace(cache_fraction=0.10, **overrides)
    client = DHnswClient(deployment.layout, deployment.meta, config,
                         cost_model=deployment.cost_model)
    try:
        client.search_batch(queries, k=10, ef_search=32)  # warm-up
        wall = compute_wall = float("inf")
        batch = None
        for _ in range(reps):
            compute_before = client.node.wall_compute_s
            start = time.perf_counter()
            batch = client.search_batch(queries, k=10, ef_search=32)
            wall = min(wall, time.perf_counter() - start)
            compute_wall = min(compute_wall,
                               client.node.wall_compute_s - compute_before)
        section = {
            "pipeline_waves": bool(config.pipeline_waves),
            "wall_seconds": round(wall, 4),
            "compute_wall_seconds": round(compute_wall, 4),
            "wall_qps": round(len(queries) / wall, 1),
            "simulated": {
                "total_us": round(batch.breakdown.total_us, 3),
                "network_us": round(batch.breakdown.network_us, 3),
                "sub_hnsw_us": round(batch.breakdown.sub_hnsw_us, 3),
                "latency_per_query_us": round(batch.latency_per_query_us,
                                              4),
                "overlap_saved_us": round(batch.overlap_saved_us, 3),
                "waves": batch.waves,
            },
            "bytes_per_fetched_cluster": round(
                batch.rdma.bytes_read / max(batch.clusters_fetched, 1)),
            "sub_evals": batch.sub_evals,
            "cache_misses": batch.cache_misses,
            "cache_evictions": batch.cache_evictions,
        }
        return section, batch
    finally:
        client.close()


def fetch_audit(deployment) -> dict:
    """READ every cluster once from a cold client and hold each fetch to
    blob + tail word + slack slots (a first member's range also crosses
    the word's alignment pad, < 8 B)."""
    client = DHnswClient(deployment.layout, deployment.meta,
                         deployment.config, cost_model=deployment.cost_model)
    try:
        metadata = client.metadata
        live = (OVERFLOW_TAIL_BYTES
                + TAIL_SLACK_SLOTS * overflow_record_size(metadata.dim))
        fetched = whole = 0
        fetcher = client.engine.fetcher
        for cid, cluster in enumerate(metadata.clusters):
            before = client.node.stats.bytes_read
            fetcher.poll(fetcher.issue_async([cid], doorbell=True)[0])
            nbytes = client.node.stats.bytes_read - before
            check(nbytes < cluster.blob_length + 8 + live,
                  f"fetch of never-written cluster {cid} moved {nbytes} B: "
                  f"more than its blob ({cluster.blob_length} B) + tail "
                  f"word + {TAIL_SLACK_SLOTS} slack slots ({live} B)")
            fetched += nbytes
            whole += cluster_read_extent(metadata, cid)[1]
        return {
            "clusters": metadata.num_clusters,
            "slack_slots": TAIL_SLACK_SLOTS,
            "bytes_per_fetched_cluster": round(fetched
                                               / metadata.num_clusters),
            "whole_extent_bytes_per_cluster": round(
                whole / metadata.num_clusters),
        }
    finally:
        client.close()


def assert_acceptance(batches) -> dict:
    """The acceptance gates; returns the summary block."""
    reference = batches["serial"]
    for label, batch in batches.items():
        check(all(np.array_equal(a.ids, b.ids)
                  and np.array_equal(a.distances, b.distances)
                  for a, b in zip(reference.results, batch.results)),
              f"results of '{label}' differ from look-ahead off")
        check(batch.sub_evals == reference.sub_evals,
              f"'{label}' changed the distance-evaluation count")
    check(reference.rdma.overlapped_time_us == 0.0,
          f"'serial' runs with the look-ahead off but hid "
          f"{reference.rdma.overlapped_time_us}us of wire time")

    piped = batches["pipelined"]
    check(piped.waves >= 2, "scenario produced a single wave — nothing "
                            "to overlap; enlarge the corpus")
    improvement = (reference.breakdown.total_us
                   - piped.breakdown.total_us)
    hidden = piped.overlap_saved_us
    check(hidden > 0.0, "pipelined run hid no wire time")
    check(improvement >= hidden * (1 - 1e-6) - 1e-6,
          f"simulated improvement {improvement:.3f}us fell short of the "
          f"hidden wire time {hidden:.3f}us")
    check(piped.breakdown.network_us < reference.breakdown.network_us,
          "pipelining did not shrink the exposed network bucket")
    return {
        "simulated_improvement_us": round(improvement, 3),
        "overlap_saved_us": round(hidden, 3),
        "bit_identical": True,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (small build, fewer reps)")
    parser.add_argument("--output", type=pathlib.Path,
                        default=DEFAULT_OUTPUT)
    args = parser.parse_args()
    mode = "quick" if args.quick else "full"
    scale = SCALES[mode]
    cpu_count = os.cpu_count() or 1

    build_start = time.perf_counter()
    dataset = sift_like(num_vectors=scale["num_vectors"],
                        num_queries=scale["num_queries"],
                        num_clusters=scale["num_clusters"],
                        gt_k=10, seed=42)
    config = DHnswConfig(nprobe=4, ef_meta=32, cache_fraction=0.10,
                         overflow_capacity_records=64, seed=42)
    deployment = Deployment(dataset.vectors, config,
                            simulate_link_contention=False)
    build_seconds = time.perf_counter() - build_start
    queries = dataset.queries[:scale["batch_size"]]

    sections = {}
    batches = {}
    for label, overrides in CONFIGS:
        sections[label], batches[label] = run_config(
            deployment, queries, overrides, scale["reps"])

    acceptance = assert_acceptance(batches)
    acceptance["fetch_audit"] = fetch_audit(deployment)
    report = {
        "benchmark": "pipelined serving engine vs serial",
        "mode": mode,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": cpu_count,
        },
        "dataset": {
            "kind": "sift_like",
            "num_vectors": scale["num_vectors"],
            "dim": dataset.vectors.shape[1],
            "num_clusters": scale["num_clusters"],
            "batch_size": scale["batch_size"],
            "nprobe": config.nprobe,
            "seed": 42,
        },
        "build_seconds": round(build_seconds, 1),
        "reps_best_of": scale["reps"],
        "sections": sections,
        "acceptance": acceptance,
    }

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({"sections": sections, "acceptance": acceptance},
                     indent=2))
    print(f"\nwrote {args.output}")


if __name__ == "__main__":
    main()
