"""Vectorized top-k candidate merging.

The serving engine accumulates (gid, distance) candidates for every query
from several cluster searches — the same gid can surface from its home
cluster's graph and again from an overflow record, and filtered queries keep
everything until finalize.  The pre-PR-4 engine merged through per-query
``dict[int, float]`` accumulators and a final ``heapq.nsmallest``; this
module replaces that with bounded NumPy buffers compacted via
``np.argpartition``, with tie-breaking deterministically equal to the dict
path: candidates are ordered by ``(distance, gid)`` ascending, duplicate
gids keep their minimum distance.  The dict implementation lives on as the
oracle of the Hypothesis equivalence test
(``tests/core/reference_merge.py``).

Distances are buffered as float64 — the dict path compared Python floats —
and cast to float32 only in the returned arrays, exactly as before.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

__all__ = ["TopKMerger", "select_topk"]


def select_topk(gids: np.ndarray, dists: np.ndarray,
                k: int) -> tuple[np.ndarray, np.ndarray]:
    """First ``k`` of ``(dist, gid)``-ascending order over deduplicated
    candidates, selected via ``argpartition`` instead of a full sort.

    ``argpartition`` finds the k-th smallest distance; every candidate at or
    below that threshold (all potential tie members) is kept and only that
    subset is lexsorted, so the result is identical to sorting everything.
    """
    n = gids.shape[0]
    if k < n:
        kth = np.max(dists[np.argpartition(dists, k - 1)[:k]])
        keep = dists <= kth
        gids, dists = gids[keep], dists[keep]
    order = np.lexsort((gids, dists))[:k]
    return gids[order], dists[order]


class TopKMerger:
    """Per-query bounded candidate buffers with deterministic top-k.

    Parameters
    ----------
    num_queries:
        Batch size; one buffer per query.
    k:
        Final result size; also the compaction retention bound.
    prune:
        When True (no result filter), a buffer exceeding the compaction
        threshold is collapsed to its top-k — safe because any discarded
        candidate already has ``k`` strictly better unique gids, and future
        chunks can only improve those.  Filtered searches set False and
        keep every unique gid until :meth:`top` (the filter may reject
        arbitrarily many of the better candidates).
    """

    def __init__(self, num_queries: int, k: int, prune: bool = True,
                 compact_threshold: int | None = None) -> None:
        if num_queries < 0:
            raise ValueError(f"num_queries must be >= 0, got {num_queries}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.prune = prune
        self._threshold = (compact_threshold if compact_threshold is not None
                           else max(256, 8 * k))
        if self._threshold < 1:
            raise ValueError("compact_threshold must be >= 1")
        self._gid_chunks: list[list[np.ndarray]] = [[] for _ in
                                                    range(num_queries)]
        self._dist_chunks: list[list[np.ndarray]] = [[] for _ in
                                                     range(num_queries)]
        self._counts = [0] * num_queries

    def add(self, query_index: int, gids: Iterable[int] | np.ndarray,
            dists: Iterable[float] | np.ndarray) -> None:
        """Append a chunk of candidates for one query."""
        gids = np.asarray(gids, dtype=np.int64)
        dists = np.asarray(dists, dtype=np.float64)
        if gids.shape != dists.shape:
            raise ValueError(
                f"gids/dists shape mismatch: {gids.shape} vs {dists.shape}")
        if gids.size == 0:
            return
        self._gid_chunks[query_index].append(gids)
        self._dist_chunks[query_index].append(dists)
        self._counts[query_index] += gids.size
        if self.prune and self._counts[query_index] > self._threshold:
            self._compact(query_index)

    # ------------------------------------------------------------------
    def _collapse(self, query_index: int) -> tuple[np.ndarray, np.ndarray]:
        """All buffered candidates deduplicated to min-distance per gid."""
        chunks = self._gid_chunks[query_index]
        if not chunks:
            return (np.empty(0, dtype=np.int64), np.empty(0,
                                                          dtype=np.float64))
        gids = np.concatenate(chunks)
        dists = np.concatenate(self._dist_chunks[query_index])
        # Order by (gid, dist): the first row of each gid run is its min.
        order = np.lexsort((dists, gids))
        gids, dists = gids[order], dists[order]
        first = np.empty(gids.shape[0], dtype=bool)
        first[0] = True
        np.not_equal(gids[1:], gids[:-1], out=first[1:])
        return gids[first], dists[first]

    def _store(self, query_index: int, gids: np.ndarray,
               dists: np.ndarray) -> None:
        self._gid_chunks[query_index] = [gids]
        self._dist_chunks[query_index] = [dists]
        self._counts[query_index] = gids.size

    def _compact(self, query_index: int) -> None:
        gids, dists = self._collapse(query_index)
        if gids.size > self.k:
            gids, dists = select_topk(gids, dists, self.k)
        self._store(query_index, gids, dists)

    # ------------------------------------------------------------------
    def top(self, query_index: int, k: int | None = None,
            filter_fn: Callable[[int], bool] | None = None,
            ) -> tuple[np.ndarray, np.ndarray]:
        """Final ``(ids int64, distances float32)`` for one query,
        ascending by ``(distance, gid)`` — the dict-path contract."""
        k = self.k if k is None else k
        gids, dists = self._collapse(query_index)
        self._store(query_index, gids, dists)
        if filter_fn is not None and gids.size:
            keep = np.fromiter((bool(filter_fn(int(g))) for g in gids),
                               dtype=bool, count=gids.size)
            gids, dists = gids[keep], dists[keep]
        if gids.size:
            gids, dists = select_topk(gids, dists, k)
        return gids.astype(np.int64), dists.astype(np.float32)
