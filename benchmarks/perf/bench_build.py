"""Wall-clock microbenchmark of the parallel index-construction pipeline.

Measures how fast the offline §3.1–§3.2 build pipeline runs after the
vectorized construction loops, the zero-copy cluster serializer and the
process-pool cluster builds — against a *seed-equivalent* baseline that
flips every optimization off (reference insert loops, struct-packing
serializer, in-process builds).  Three sections:

* ``insert_construction`` — single sub-HNSW insert throughput: occlusion
  columns read from the batch's pair table, einsum occlusion columns
  (row-by-row inserts) and the reference loops;
* ``serialization``       — cluster blob MB/s, zero-copy buffer views vs
  the reference struct packer;
* ``end_to_end_build``    — full ``Deployment`` construction over the
  acceptance scenario (20k vectors, 100 clusters): seed-equivalent
  baseline, new sequential (``build_workers=0``) and process-pool
  (``build_workers=4``) builds.

Every section asserts the equivalence contract: the three construction
paths serialize byte-identical blobs with equal evaluation counts, the
zero-copy serializer produces byte-identical blobs, and all three
end-to-end builds leave *byte-identical remote regions* (SHA-256 over the
whole layout).
Any drift exits non-zero, so CI runs double as a regression gate.

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

import repro.core.engine as engine_module
import repro.hnsw.build as build_module
from repro.cluster import Deployment
from repro.core import DHnswConfig
from repro.datasets import sift_like
from repro.hnsw import HnswIndex, HnswParams
from repro.layout.serializer import (serialize_cluster,
                                     serialize_cluster_reference)

DEFAULT_OUTPUT = pathlib.Path(__file__).parent / "BENCH_build.json"

#: The acceptance scenario (full) and a CI-sized shrink (quick).
SCALES = {
    "full": dict(num_vectors=20000, num_clusters=100, insert_nodes=2000,
                 reps=5, workers=4),
    "quick": dict(num_vectors=2000, num_clusters=20, insert_nodes=500,
                  reps=3, workers=2),
}


def best_of(reps: int, fn):
    """Minimum wall time of ``reps`` calls; returns (seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"EQUIVALENCE DRIFT: {what}")


def region_digest(deployment: Deployment) -> str:
    """SHA-256 of the entire remote region (metadata + every group)."""
    layout = deployment.layout
    payload = layout.memory_node.read(layout.rkey, layout.region.base_addr,
                                      layout.region.length)
    return hashlib.sha256(payload).hexdigest()


def bench_insert_construction(vectors: np.ndarray, reps: int) -> dict:
    """Sub-HNSW construction throughput: the batch's pair table, einsum
    occlusion columns (row-by-row ``add_one``) and the reference loops."""
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

    table_time, table_index = best_of(reps, batch)
    einsum_time, einsum_index = best_of(reps, row_by_row)
    build_module.VECTORIZED_CONSTRUCTION = False
    try:
        ref_time, ref_index = best_of(max(1, reps - 2), batch)
    finally:
        build_module.VECTORIZED_CONSTRUCTION = True

    table, einsum, reference = (
        (serialize_cluster(index, 0), index.kernel.num_evaluations)
        for index in (table_index, einsum_index, ref_index))
    check(table[0] == einsum[0] == reference[0],
          "construction paths serialized different graphs")
    check(table[1] == einsum[1] == reference[1],
          "construction paths counted different evaluations")
    nodes = vectors.shape[0]
    return {
        "nodes": int(nodes),
        "dim": int(vectors.shape[1]),
        "pair_table_bytes": 4 * min(nodes,
                                    build_module.TABLE_NODES_MAX) ** 2,
        "distance_evaluations": table[1],
        "reference_inserts_per_s": round(nodes / ref_time, 1),
        "einsum_column_inserts_per_s": round(nodes / einsum_time, 1),
        "pair_table_inserts_per_s": round(nodes / table_time, 1),
        "speedup": round(ref_time / table_time, 2),
        "speedup_vs_einsum_columns": round(einsum_time / table_time, 2),
        "blobs_and_counts_identical": True,
    }


def bench_serialization(vectors: np.ndarray, reps: int) -> dict:
    """Cluster blob serialization MB/s, zero-copy vs struct packer."""
    index = HnswIndex(vectors.shape[1],
                      HnswParams(m=16, ef_construction=100, seed=42))
    index.add(vectors)

    new_time, new_blob = best_of(reps * 3,
                                 lambda: serialize_cluster(index, 0))
    ref_time, ref_blob = best_of(reps * 3,
                                 lambda: serialize_cluster_reference(index, 0))
    check(new_blob == ref_blob, "zero-copy serializer changed the bytes")
    nbytes = len(new_blob)
    return {
        "blob_bytes": nbytes,
        "reference_mb_per_s": round(nbytes / ref_time / 1e6, 1),
        "zero_copy_mb_per_s": round(nbytes / new_time / 1e6, 1),
        "speedup": round(ref_time / new_time, 2),
    }


def bench_end_to_end(dataset, config: DHnswConfig, workers: int) -> dict:
    """Three full builds: seed-equivalent baseline, sequential, parallel.

    The baseline flips the construction loops back to the reference
    implementation and the serializer back to the struct packer — the
    seed's sequential build, minus its blobs-all-in-memory planning
    (streamed here too, which only flatters the baseline).
    """

    def build(build_workers: int) -> tuple[float, Deployment]:
        start = time.perf_counter()
        deployment = Deployment(
            dataset.vectors, config.replace(build_workers=build_workers),
            simulate_link_contention=False)
        return time.perf_counter() - start, deployment

    build_module.VECTORIZED_CONSTRUCTION = False
    engine_module.serialize_cluster = serialize_cluster_reference
    try:
        baseline_seconds, baseline = build(0)
    finally:
        build_module.VECTORIZED_CONSTRUCTION = True
        engine_module.serialize_cluster = serialize_cluster
    sequential_seconds, sequential = build(0)
    parallel_seconds, parallel = build(workers)

    digests = {name: region_digest(deployment) for name, deployment in
               [("baseline", baseline), ("sequential", sequential),
                ("parallel", parallel)]}
    check(len(set(digests.values())) == 1,
          f"remote layouts diverged across build modes: {digests}")
    speedup = baseline_seconds / parallel_seconds
    return {
        "num_vectors": int(dataset.vectors.shape[0]),
        "dim": int(dataset.vectors.shape[1]),
        "build_workers": workers,
        "baseline_seconds": round(baseline_seconds, 2),
        "sequential_seconds": round(sequential_seconds, 2),
        "parallel_seconds": round(parallel_seconds, 2),
        "speedup_vs_baseline": round(speedup, 2),
        "meets_3x_target": speedup >= 3.0,
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
        "benchmark": "parallel index construction vs seed sequential build",
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


if __name__ == "__main__":
    main()
