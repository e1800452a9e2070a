"""PQ-compressed transfer ablation (library extension).

A disaggregated store can ship PQ codes instead of raw float vectors:
``4 * dim / num_subspaces``x less payload per vector, at the cost of
approximate distances corrected by a small exact re-rank.  This
ablation measures, on the bench corpus:

* the compression ratio and the simulated transfer time saved for one
  full-corpus transfer;
* recall of ADC-only vs re-ranked PQ search against exact ground truth.
"""

from __future__ import annotations

from repro.metrics import recall_at_k
from repro.pq import PqCodebook, PqRerankIndex

from .conftest import emit_table

SUBSPACES = (4, 8, 16)
#: Exact re-rank depth: a fixed share of the corpus (about 4 %, never below
#: 50).  ADC ranks get coarser as the corpus grows — a fixed depth of 50
#: repairs 1200 vectors to 0.998 recall but 8000 only to 0.69-0.77.
MIN_RERANK, RERANK_SHARE = 50, 24


def test_ablation_pq_transfer(sift_world, benchmark):
    world = sift_world
    data = world.dataset.vectors
    queries = world.dataset.queries[:100]
    truth = world.dataset.ground_truth[:100]
    model = world.cost_model

    rerank_depth = max(MIN_RERANK, len(data) // RERANK_SHARE)
    full_bytes = data.nbytes
    full_transfer_us = model.transfer_us(full_bytes)
    rows = []
    recalls = {}
    for subspaces in SUBSPACES:
        codebook = PqCodebook(data.shape[1], num_subspaces=subspaces,
                              seed=1)
        codebook.train(data)
        index = PqRerankIndex(codebook)
        index.add(data)

        def recall(rerank):
            result = [index.search(query, 10, rerank=rerank)[0].tolist()
                      for query in queries]
            return recall_at_k(result, truth, 10)

        adc_recall = recall(0)
        reranked_recall = recall(rerank_depth)
        recalls[subspaces] = (adc_recall, reranked_recall)
        ratio = full_bytes / index.compressed_bytes
        compressed_us = model.transfer_us(index.compressed_bytes)
        rows.append(
            f"{subspaces:>9} {ratio:>6.0f}x "
            f"{full_transfer_us:>13.1f} {compressed_us:>14.1f} "
            f"{adc_recall:>10.3f} {reranked_recall:>14.3f}")

    header = (f"{'subspaces':>9} {'ratio':>7} {'full_xfer_us':>13} "
              f"{'pq_xfer_us':>14} {'adc_recall':>10} "
              f"{'rerank_recall':>14}")
    emit_table("ablation_pq_transfer", header, rows)

    # More subspaces -> finer quantization -> better ADC recall.
    adc = [recalls[s][0] for s in SUBSPACES]
    assert adc[0] <= adc[-1] + 1e-9
    # Re-ranking repairs most of the quantization loss everywhere.
    for subspaces in SUBSPACES:
        adc_recall, reranked_recall = recalls[subspaces]
        assert reranked_recall >= adc_recall
        assert reranked_recall >= 0.85
    # And the headline: an order of magnitude less transfer.
    assert full_bytes / (data.shape[0] * SUBSPACES[-1]) >= 16

    codebook = PqCodebook(data.shape[1], num_subspaces=8, seed=1)
    codebook.train(data)
    index = PqRerankIndex(codebook)
    index.add(data)
    benchmark.pedantic(lambda: index.search(queries[0], 10,
                                            rerank=rerank_depth),
                       rounds=1, iterations=1)
    benchmark.extra_info["recalls"] = {
        str(subspaces): recalls[subspaces] for subspaces in SUBSPACES}
