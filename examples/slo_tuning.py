#!/usr/bin/env python3
"""Operating d-HNSW against a recall SLO, and compressing transfers.

Two operational questions every vector-search service answers:

1. *"What efSearch do I need for recall >= 0.9?"* — answered by the
   auto-tuner, which binary-searches the smallest beam width meeting the
   target on a validation set (smaller beam = lower latency).
2. *"Can I afford to ship vectors uncompressed?"* — answered by product
   quantization: PQ codes shrink transfers by an order of magnitude and
   a small exact re-rank repairs the recall.

Both questions concern one batch in isolation.  For the follow-on —
serving *arriving* traffic against the tuned operating point, with
batching, multi-tenant fairness, and overload degradation — see
``examples/frontdoor_slo.py``.

Run:  python examples/slo_tuning.py
"""

from __future__ import annotations

from repro import Deployment, DHnswConfig, recall_at_k
from repro.core.tuning import tune_ef_search
from repro.datasets import sift_like
from repro.pq import PqCodebook, PqRerankIndex


def main() -> None:
    dataset = sift_like(num_vectors=5000, num_queries=150,
                        num_clusters=60, seed=11)
    validation, live = dataset.queries[:50], dataset.queries[50:]
    validation_truth = dataset.ground_truth[:50]
    live_truth = dataset.ground_truth[50:]

    print("building the deployment...")
    deployment = Deployment(dataset.vectors, DHnswConfig(nprobe=4, seed=11))
    client = deployment.client()

    print("\n== 1. tuning efSearch for recall@10 >= 0.90 ==")
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

    print("\n== 2. PQ-compressed transfers ==")
    book = PqCodebook(dataset.dim, num_subspaces=8, seed=11)
    book.train(dataset.vectors)
    pq_index = PqRerankIndex(book)
    pq_index.add(dataset.vectors)
    ratio = pq_index.full_bytes / pq_index.compressed_bytes
    print(f"compression        : {ratio:.0f}x "
          f"({pq_index.full_bytes / 2**20:.1f} MiB -> "
          f"{pq_index.compressed_bytes / 2**20:.2f} MiB)")
    for rerank in (0, 200):
        ids = [pq_index.search(query, 10, rerank=rerank)[0].tolist()
               for query in live]
        recall = recall_at_k(ids, live_truth, 10)
        mode = "pure ADC" if rerank == 0 else f"re-rank {rerank}"
        print(f"  {mode:<12}: recall@10 = {recall:.3f}")


if __name__ == "__main__":
    main()
