"""The per-cluster search task of the serving engine.

``search_cluster_entry`` is a *pure* function over a cached cluster entry
and a block of query vectors: it runs the sub-HNSW beam search plus the
overflow-record scan and returns private per-query candidate arrays, never
touching shared state: its output depends only on its inputs, so the
executor may run it whenever a planned cluster's turn comes, and the
caller merges outputs in deterministic cluster order.

Tombstoned/superseded ids are masked out of graph candidates and live
overflow records are scored against every query; both count towards the
distance evaluations the latency model charges.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.core.cache import CachedCluster
from repro.layout.serializer import replay_overflow

__all__ = ["ClusterSearchResult", "search_cluster_entry"]


@dataclasses.dataclass
class ClusterSearchResult:
    """Output of one cluster search over a group of queries.

    ``gids[i]`` / ``dists[i]`` are the candidates for the i-th query row of
    the block the task was given (the caller re-maps rows to batch-global
    query indices).  Duplicate gids within a row are allowed — the merger
    keeps the minimum distance.
    """

    evals: int
    gids: list[np.ndarray]
    dists: list[np.ndarray]


def search_cluster_entry(entry: CachedCluster, queries: np.ndarray,
                         k: int, ef: int | Sequence[int]
                         ) -> ClusterSearchResult:
    """Search one cluster (graph + overflow) for a block of queries.

    ``ef`` is one beam for the block or one per row (the serving loop
    passes each row's beam for its probe rank).  The overflow replay, the
    dead-node mask, the live records' distances to every query and the
    graph's distance tables are computed once for the whole block.
    Distance evaluations are read off the entry's kernel counter, so they
    match the serial engine exactly.
    """
    kernel = entry.index.kernel
    evals_before = kernel.num_evaluations
    state = replay_overflow(entry.overflow)
    live = [record for record in state.values() if record is not None]
    labels = entry.labels
    # Graph nodes whose id the overflow tombstoned or superseded.
    alive = (~np.isin(labels, np.fromiter(state.keys(), dtype=np.int64,
                                          count=len(state)))
             if state else None)
    num_queries = queries.shape[0]
    if len(entry.index) > 0:
        candidate_lists = entry.index.search_candidates_batch(queries, k, ef)
    else:
        candidate_lists = [[] for _ in range(num_queries)]
    if live:
        matrix = np.stack([record.vector for record in live])
        live_gids = np.array([record.global_id for record in live],
                             dtype=np.int64)
        # One table for the block; its rows are bit-identical to a
        # per-query ``kernel.many`` (row-independent einsum), so only the
        # count is left to credit.
        overflow_dists = kernel.l2_table(queries, matrix).astype(np.float64)
        kernel.num_evaluations += num_queries * len(live)

    out_gids: list[np.ndarray] = []
    out_dists: list[np.ndarray] = []
    for row, candidates in enumerate(candidate_lists):
        if candidates:
            dists = np.fromiter((dist for dist, _ in candidates),
                                dtype=np.float64, count=len(candidates))
            nodes = np.fromiter((node for _, node in candidates),
                                dtype=np.int64, count=len(candidates))
            if alive is not None:
                keep = alive[nodes]
                nodes, dists = nodes[keep], dists[keep]
            gids = labels[nodes]
        else:
            gids = np.empty(0, dtype=np.int64)
            dists = np.empty(0, dtype=np.float64)
        if live:
            gids = np.concatenate([gids, live_gids])
            dists = np.concatenate([dists, overflow_dists[row]])
        out_gids.append(gids)
        out_dists.append(dists)
    return ClusterSearchResult(evals=kernel.num_evaluations - evals_before,
                               gids=out_gids, dists=out_dists)
