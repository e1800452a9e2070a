#!/usr/bin/env python3
"""Operating d-HNSW against a recall SLO.

The operational question every vector-search service answers first —
*"What efSearch do I need for recall >= 0.9?"* — is answered by the
auto-tuner, which binary-searches the smallest beam width meeting the
target on a validation set (smaller beam = lower latency), and the
chosen beam is then checked on live traffic.

This concerns one batch in isolation.  For the follow-on —
serving *arriving* traffic against the tuned operating point, with
batching, multi-tenant fairness, and overload degradation — see
``examples/frontdoor_slo.py``.

Run:  python examples/slo_tuning.py
"""

from __future__ import annotations

from repro import Deployment, DHnswConfig, recall_at_k
from repro.core.tuning import tune_ef_search
from repro.datasets import sift_like


def main() -> None:
    dataset = sift_like(num_vectors=5000, num_queries=150,
                        num_clusters=60, seed=11)
    validation, live = dataset.queries[:50], dataset.queries[50:]
    validation_truth = dataset.ground_truth[:50]
    live_truth = dataset.ground_truth[50:]

    print("building the deployment...")
    deployment = Deployment(dataset.vectors, DHnswConfig(nprobe=4, seed=11))
    client = deployment.client()

    print("\n== tuning efSearch for recall@10 >= 0.90 ==")
    result = tune_ef_search(client, validation, validation_truth, k=10,
                            target_recall=0.90, ef_max=128)
    print("probes tried       : "
          + ", ".join(f"ef={ef}->{recall:.3f}"
                      for ef, recall in result.evaluations))
    print(f"chosen efSearch    : {result.ef_search} "
          f"(validation recall {result.recall:.3f})")

    batch = client.search_batch(live, 10, ef_search=result.ef_search)
    live_recall = recall_at_k(batch.ids_list(), live_truth, 10)
    print(f"live traffic       : recall {live_recall:.3f} at "
          f"{batch.latency_per_query_us:.1f} us/query (simulated)")


if __name__ == "__main__":
    main()
