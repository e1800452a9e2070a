"""Wall-clock microbenchmark of the parallel index-construction pipeline.

Measures how fast the offline §3.1–§3.2 build pipeline runs: the
vectorized construction loops, the zero-copy cluster serializer and the
process-pool cluster builds.  Three sections:

* ``insert_construction`` — single sub-HNSW insert throughput: occlusion
  columns read from the batch's pair table vs einsum occlusion columns
  (row-by-row inserts);
* ``serialization``       — cluster blob MB/s through the zero-copy
  buffer views;
* ``end_to_end_build``    — full ``Deployment`` construction over the
  acceptance scenario (20k vectors, 100 clusters): sequential
  (``build_workers=0``) and process-pool (``build_workers=4``) builds.

The construction and build sections assert the equivalence contract:
the two construction paths serialize byte-identical blobs with equal
evaluation counts, and both end-to-end builds leave *byte-identical
remote regions* (SHA-256 over the whole layout).  A quick run also pins
what construction builds: the region's SHA-256 and the insert section's
evaluation count must equal :data:`QUICK_REGION_SHA256` and
:data:`QUICK_EVALUATIONS`, so a change that builds different graphs fails
even when both build modes agree on them.  Any drift exits non-zero, so
CI runs double as a regression gate.

Wall clocks on a shared host wander, so the insert and end-to-end
sections report ``time.process_time`` next to wall time (the process-pool
build's CPU is spent in its workers, so only the sequential build's is
reported).

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_build.py           # full
    PYTHONPATH=src python benchmarks/perf/bench_build.py --quick   # CI

Writes ``benchmarks/perf/BENCH_build.json`` (override with ``--output``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import platform
import time

import numpy as np

import repro.hnsw.build as build_module
from repro.cluster import Deployment
from repro.core import DHnswConfig
from repro.datasets import sift_like
from repro.hnsw import HnswIndex, HnswParams
from repro.layout.serializer import serialize_cluster

DEFAULT_OUTPUT = pathlib.Path(__file__).parent / "BENCH_build.json"

#: The acceptance scenario (full) and a CI-sized shrink (quick).
SCALES = {
    "full": dict(num_vectors=20000, num_clusters=100, insert_nodes=2000,
                 reps=5, workers=4),
    "quick": dict(num_vectors=2000, num_clusters=20, insert_nodes=500,
                  reps=3, workers=2),
}


#: What a quick run builds, pinned: the end-to-end region's SHA-256 and
#: the insert section's distance evaluations.  The SHA-256 covers every
#: blob's bytes, so it pins the cluster wire format too.  A change to
#: construction or to the format that alters either must update these on
#: purpose.
QUICK_REGION_SHA256 = (
    "cb2f503e1ab9577db79d2e8e704d29b7ffad850bc3fcf047f02d86a67fba0304")
QUICK_EVALUATIONS = 811_160


def best_of(reps: int, fn):
    """Minimum wall and CPU (``process_time``) seconds of ``reps`` calls;
    returns (wall, cpu, last result)."""
    best_wall = best_cpu = float("inf")
    result = None
    for _ in range(reps):
        start, start_cpu = time.perf_counter(), time.process_time()
        result = fn()
        best_wall = min(best_wall, time.perf_counter() - start)
        best_cpu = min(best_cpu, time.process_time() - start_cpu)
    return best_wall, best_cpu, result


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"EQUIVALENCE DRIFT: {what}")


def check_pinned(sections: dict) -> None:
    """Fail a quick run whose graphs differ from the pinned ones."""
    found = (sections["end_to_end_build"]["region_sha256"],
             sections["insert_construction"]["distance_evaluations"])
    if found != (QUICK_REGION_SHA256, QUICK_EVALUATIONS):
        raise SystemExit(
            f"CONSTRUCTION CHANGED: quick-mode region SHA-256 {found[0]} "
            f"and {found[1]} evaluations, pinned {QUICK_REGION_SHA256} and "
            f"{QUICK_EVALUATIONS}.  Construction must build the same "
            f"graphs in the same wire format; a change that means to "
            f"alter either must update "
            f"QUICK_REGION_SHA256 and QUICK_EVALUATIONS in "
            f"benchmarks/perf/bench_build.py on purpose.")


def region_digest(deployment: Deployment) -> str:
    """SHA-256 of the entire remote region (metadata + every group)."""
    layout = deployment.layout
    payload = layout.memory_node.read(layout.rkey, layout.region.base_addr,
                                      layout.region.length)
    return hashlib.sha256(payload).hexdigest()


def bench_insert_construction(vectors: np.ndarray, reps: int) -> dict:
    """Sub-HNSW construction throughput: the batch's pair table vs einsum
    occlusion columns (row-by-row ``add_one``)."""
    params = HnswParams(m=16, ef_construction=100, seed=42)

    def batch():
        index = HnswIndex(vectors.shape[1], params)
        index.add(vectors)
        return index

    def row_by_row():
        index = HnswIndex(vectors.shape[1], params)
        for vector in vectors:
            index.add_one(vector)
        return index

    table_time, table_cpu, table_index = best_of(reps, batch)
    einsum_time, einsum_cpu, einsum_index = best_of(reps, row_by_row)

    table, einsum = (
        (serialize_cluster(index, 0), index.kernel.num_evaluations)
        for index in (table_index, einsum_index))
    check(table[0] == einsum[0],
          "construction paths serialized different graphs")
    check(table[1] == einsum[1],
          "construction paths counted different evaluations")
    nodes = vectors.shape[0]
    return {
        "nodes": int(nodes),
        "dim": int(vectors.shape[1]),
        "pair_table_bytes": 4 * min(nodes,
                                    build_module.TABLE_NODES_MAX) ** 2,
        "distance_evaluations": table[1],
        "einsum_column_inserts_per_s": round(nodes / einsum_time, 1),
        "pair_table_inserts_per_s": round(nodes / table_time, 1),
        "einsum_column_cpu_seconds": round(einsum_cpu, 3),
        "pair_table_cpu_seconds": round(table_cpu, 3),
        "speedup_vs_einsum_columns": round(einsum_time / table_time, 2),
        "blobs_and_counts_identical": True,
    }


def bench_serialization(vectors: np.ndarray, reps: int) -> dict:
    """Cluster blob serialization MB/s through the zero-copy writer."""
    index = HnswIndex(vectors.shape[1],
                      HnswParams(m=16, ef_construction=100, seed=42))
    index.add(vectors)

    seconds, _, blob = best_of(reps * 3,
                               lambda: serialize_cluster(index, 0))
    return {
        "blob_bytes": len(blob),
        "zero_copy_mb_per_s": round(len(blob) / seconds / 1e6, 1),
    }


def bench_end_to_end(dataset, config: DHnswConfig, workers: int) -> dict:
    """Two full builds: sequential and on a process pool."""

    def build(build_workers: int) -> tuple[float, float, Deployment]:
        start, start_cpu = time.perf_counter(), time.process_time()
        deployment = Deployment(
            dataset.vectors, config.replace(build_workers=build_workers),
            simulate_link_contention=False)
        return (time.perf_counter() - start,
                time.process_time() - start_cpu, deployment)

    sequential_seconds, sequential_cpu, sequential = build(0)
    parallel_seconds, _, parallel = build(workers)

    digests = {name: region_digest(deployment) for name, deployment in
               [("sequential", sequential), ("parallel", parallel)]}
    check(len(set(digests.values())) == 1,
          f"remote layouts diverged across build modes: {digests}")
    return {
        "num_vectors": int(dataset.vectors.shape[0]),
        "dim": int(dataset.vectors.shape[1]),
        "build_workers": workers,
        "sequential_seconds": round(sequential_seconds, 2),
        "sequential_cpu_seconds": round(sequential_cpu, 2),
        "parallel_seconds": round(parallel_seconds, 2),
        "parallel_speedup": round(sequential_seconds / parallel_seconds, 2),
        "region_sha256": digests["parallel"],
        "layouts_byte_identical": True,
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

    dataset = sift_like(num_vectors=scale["num_vectors"], num_queries=8,
                        num_clusters=scale["num_clusters"], gt_k=10,
                        seed=42)
    config = DHnswConfig(nprobe=4, ef_meta=32, cache_fraction=0.10,
                         overflow_capacity_records=64, seed=42)
    micro_vectors = dataset.vectors[:scale["insert_nodes"]]

    report = {
        "benchmark": "index construction: sequential vs process-pool build",
        "mode": mode,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "dataset": {
            "kind": "sift_like",
            "num_vectors": scale["num_vectors"],
            "dim": int(dataset.vectors.shape[1]),
            "num_clusters": scale["num_clusters"],
            "seed": 42,
        },
        "reps_best_of": scale["reps"],
        "sections": {
            "insert_construction": bench_insert_construction(
                micro_vectors, scale["reps"]),
            "serialization": bench_serialization(micro_vectors,
                                                 scale["reps"]),
            "end_to_end_build": bench_end_to_end(dataset, config,
                                                 scale["workers"]),
        },
    }

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report["sections"], indent=2))
    print(f"\nwrote {args.output}")
    if args.quick:
        check_pinned(report["sections"])


if __name__ == "__main__":
    main()
