"""Exact brute-force k-nearest-neighbour ground truth.

Recall in every experiment is measured against this oracle, exactly as the
SIFT/GIST benchmark suites ship precomputed exact neighbours.  Both axes
stream: queries are processed in chunks and the corpus in fixed-size
blocks, so the distance matrix held at any moment is at most
``chunk_size x corpus_block`` floats no matter how large the corpus is —
what keeps 1M-vector ground truth inside a bounded memory footprint.
"""

from __future__ import annotations

import numpy as np

from repro.hnsw.distance import DistanceKernel

__all__ = ["exact_knn"]


def exact_knn(corpus: np.ndarray, queries: np.ndarray, k: int,
              chunk_size: int = 256,
              corpus_block: int = 131_072) -> np.ndarray:
    """Exact top-``k`` corpus indices for each query row.

    Returns an ``(num_queries, k)`` int64 array, columns sorted by
    ascending ``(distance, id)`` — the id tie-break makes the result
    independent of how the corpus is blocked (up to exact distance ties
    straddling a block's own ``argpartition`` boundary, which float
    descriptor data does not produce).  ``k`` is clipped to the corpus
    size; ``corpus_block`` bounds how many corpus rows are scored at
    once.
    """
    corpus = np.atleast_2d(np.asarray(corpus, dtype=np.float32))
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if corpus_block < 1:
        raise ValueError(f"corpus_block must be >= 1, got {corpus_block}")
    k = min(k, corpus.shape[0])
    kernel = DistanceKernel(corpus.shape[1])
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    for start in range(0, queries.shape[0], chunk_size):
        block = queries[start:start + chunk_size]
        # Running top-k candidates per query: each corpus block
        # contributes its local winners, merged by (distance, id).
        best_dists: np.ndarray | None = None
        best_ids: np.ndarray | None = None
        for base in range(0, corpus.shape[0], corpus_block):
            sub = corpus[base:base + corpus_block]
            dists = kernel.cross(block, sub)
            take = min(k, sub.shape[0])
            # argpartition then sort the winners: O(n + k log k) per query.
            top = np.argpartition(dists, take - 1, axis=1)[:, :take]
            cand_dists = np.take_along_axis(dists, top, axis=1)
            cand_ids = top.astype(np.int64) + base
            if best_dists is not None:
                cand_dists = np.concatenate([best_dists, cand_dists], axis=1)
                cand_ids = np.concatenate([best_ids, cand_ids], axis=1)
            # Row-wise lexicographic order: distance primary, id secondary.
            order = np.lexsort((cand_ids, cand_dists), axis=-1)[:, :k]
            best_dists = np.take_along_axis(cand_dists, order, axis=1)
            best_ids = np.take_along_axis(cand_ids, order, axis=1)
        out[start:start + block.shape[0]] = best_ids
    return out
