"""Test-side oracle: the pre-PR-4 dict-accumulator merge, verbatim.

Per-query ``dict[int, float]`` accumulators and a final
``heapq.nsmallest`` — ``repro.core.merge.TopKMerger`` must return
bit-identical ids and distances for any chunk sequence.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable

import numpy as np


def merge_reference(num_queries: int,
                    chunks: Iterable[tuple[int, Iterable[int],
                                           Iterable[float]]],
                    k: int,
                    filter_fn: Callable[[int], bool] | None = None,
                    ) -> list[tuple[np.ndarray, np.ndarray]]:
    """The pre-PR-4 dict-accumulator merge, kept as a test oracle.

    ``chunks`` is a flat iterable of ``(query_index, gids, dists)``; the
    return value matches :meth:`TopKMerger.top` for every query.
    """
    merged: list[dict[int, float]] = [{} for _ in range(num_queries)]
    for query_index, gids, dists in chunks:
        accumulator = merged[query_index]
        for gid, dist in zip(gids, dists):
            gid, dist = int(gid), float(dist)
            previous = accumulator.get(gid)
            if previous is None or dist < previous:
                accumulator[gid] = dist
    results = []
    for accumulator in merged:
        candidates = [(dist, gid) for gid, dist in accumulator.items()
                      if filter_fn is None or filter_fn(gid)]
        best = heapq.nsmallest(k, candidates)
        ids = np.array([gid for _, gid in best], dtype=np.int64)
        distances = np.array([dist for dist, _ in best], dtype=np.float32)
        results.append((ids, distances))
    return results
