#!/usr/bin/env python3
"""Quickstart: build a d-HNSW deployment and run batched vector queries.

This walks the minimal end-to-end path:

1. generate a clustered corpus (a stand-in for your embedding table);
2. build the disaggregated index — meta-HNSW + partitioned sub-HNSWs laid
   out in (simulated) remote memory;
3. run a batch of top-10 queries and inspect recall, the latency
   breakdown, and the RDMA traffic d-HNSW saved.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import Deployment, DHnswConfig, Scheme, recall_at_k
from repro.datasets import sift_like


def main() -> None:
    print("generating a SIFT-like corpus (5000 x 128)...")
    dataset = sift_like(num_vectors=5000, num_queries=100,
                        num_clusters=60, seed=0)

    config = DHnswConfig(
        nprobe=4,           # sub-HNSW clusters probed per query
        ef_meta=32,         # beam width for meta-HNSW routing
        cache_fraction=0.10,  # compute-side cluster cache (paper's 10 %)
        seed=0,
    )

    print("building the disaggregated index...")
    deployment = Deployment(dataset.vectors, config)
    report = deployment.build_report
    print(f"  {report.num_partitions} partitions in "
          f"{report.num_groups} groups; meta-HNSW is "
          f"{report.meta_hnsw_bytes / 1024:.1f} KiB "
          f"(cached on every compute instance)")

    client = deployment.client()
    print("running a batch of 100 top-10 queries (efSearch=48)...")
    batch = client.search_batch(dataset.queries, k=10, ef_search=48)

    recall = recall_at_k(batch.ids_list(), dataset.ground_truth, 10)
    per_query = batch.per_query_breakdown()
    print(f"  recall@10          : {recall:.3f}")
    print(f"  per-query latency  : {per_query.total_us:.1f} us (simulated)")
    print(f"    network          : {per_query.network_us:.2f} us")
    print(f"    sub-HNSW compute : {per_query.sub_hnsw_us:.2f} us")
    print(f"    meta-HNSW compute: {per_query.meta_hnsw_us:.2f} us")
    print(f"  round trips/query  : {batch.round_trips_per_query:.4f}")
    print(f"  clusters fetched   : {batch.clusters_fetched} "
          f"(deduplicated from "
          f"{batch.clusters_fetched + batch.duplicate_requests_pruned} "
          f"requests)")

    print("\nsame batch again (cluster cache is warm)...")
    warm = client.search_batch(dataset.queries, k=10, ef_search=48)
    print(f"  clusters fetched   : {warm.clusters_fetched}, "
          f"cache hits: {warm.cache_hits}")
    print(f"  per-query latency  : "
          f"{warm.per_query_breakdown().total_us:.1f} us")

    print("\ncomparing against the naive baseline...")
    naive = deployment.make_client(Scheme.NAIVE)
    naive_batch = naive.search_batch(dataset.queries, k=10, ef_search=48)
    ratio = (naive_batch.latency_per_query_us
             / batch.latency_per_query_us)
    print(f"  naive per-query latency: "
          f"{naive_batch.latency_per_query_us:.1f} us "
          f"({ratio:.1f}x slower than d-HNSW)")

    print("\ninserting a new vector and finding it...")
    new_vector = dataset.queries[0]
    insert = client.insert(new_vector, global_id=999_999)
    print(f"  routed to cluster {insert.cluster_id}, "
          f"overflow slot {insert.overflow_slot}")
    found = client.search(new_vector, k=1, ef_search=32)
    print(f"  top-1 for the same vector: id={found.ids[0]} "
          f"(distance {found.distances[0]:.4f})")


if __name__ == "__main__":
    main()
