#!/usr/bin/env python3
"""Scaling past one memory node: sharded d-HNSW with an operator report.

Extends the paper's single-memory-node design the way Pyramid (the
system that inspired meta-HNSW) scales out: the corpus is split
round-robin across multiple memory nodes, each shard runs its own
d-HNSW deployment, queries fan out to every shard and merge top-k.

Also demonstrates the operational tooling that ships with the library:
operation traces (record once, replay anywhere) and the deployment
telemetry report.

Run:  python examples/sharded_scaleout.py
"""

from __future__ import annotations

import tempfile

from repro import DHnswConfig, recall_at_k
from repro.cluster import Deployment, ShardedDeployment
from repro.datasets import sift_like
from repro.replay import TraceWriter, read_trace, replay
from repro.telemetry import DeploymentTelemetry, render_report


def main() -> None:
    dataset = sift_like(num_vectors=4000, num_queries=150,
                        num_clusters=50, seed=5)
    config = DHnswConfig(nprobe=6, cache_fraction=0.15, seed=5)

    print("building 1-node and 3-node deployments of the same corpus...")
    single = Deployment(dataset.vectors, config)
    sharded = ShardedDeployment(dataset.vectors, config, num_shards=3)

    print("\nrecording a query trace...")
    with tempfile.NamedTemporaryFile(mode="w", suffix=".jsonl",
                                     delete=False) as handle:
        trace_path = handle.name
    with TraceWriter(trace_path) as trace:
        for query in dataset.queries:
            trace.search(query, k=10, ef_search=48)
        trace.insert(dataset.queries[0], global_id=1_000_000)
        trace.search(dataset.queries[0], k=1, ef_search=48)

    print("replaying the identical trace against both deployments...\n")
    header = (f"{'deployment':<12} {'recall@10':>10} {'latency_us':>11} "
              f"{'memory_nodes':>13}")
    print(header)
    for name, target, nodes in (("1 node", single.client(0), 1),
                                ("3 shards", sharded, 3)):
        replay(target, read_trace(trace_path))
        batch = target.search_batch(dataset.queries, 10, ef_search=48)
        recall = recall_at_k(batch.ids_list(), dataset.ground_truth, 10)
        print(f"{name:<12} {recall:>10.3f} "
              f"{batch.latency_per_query_us:>11.2f} {nodes:>13}")

    found = sharded.search(dataset.queries[0], 1, ef_search=48)
    print(f"\ninserted id via trace found on its shard: "
          f"{found.ids[0] == 1_000_000}")
    print(f"total remote memory across shards: "
          f"{sharded.total_registered_bytes / 2**20:.1f} MiB")

    print("\noperator report for shard 0:\n")
    print(render_report(
        DeploymentTelemetry.from_deployment(sharded.deployments[0])))


if __name__ == "__main__":
    main()
