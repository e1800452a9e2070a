"""Test-side oracle: Algorithms 2 and 5 of Malkov & Yashunin as written.

A ``set`` of visited nodes, two ``heapq`` lists, one validated
``kernel.many`` call per hop.  ``repro.hnsw.search`` must return the same
``(distance, node)`` lists and credit the same number of kernel
evaluations, compared with ``==`` — this file is what "the same" means.
"""

from __future__ import annotations

import heapq

import numpy as np


def greedy_descent(graph, kernel, query, entry, entry_dist, from_level,
                   to_level):
    current, current_dist = entry, entry_dist
    for level in range(from_level, to_level, -1):
        improved = True
        while improved:
            improved = False
            neighbor_ids = graph.neighbors(current, level)
            if not neighbor_ids:
                continue
            dists = kernel.many(query, graph.vectors[neighbor_ids])
            best = int(np.argmin(dists))
            if dists[best] < current_dist:
                current = neighbor_ids[best]
                current_dist = float(dists[best])
                improved = True
    return current, current_dist


def search_layer(graph, kernel, query, entries, ef, level):
    visited = {node for _, node in entries}
    candidates = list(entries)
    heapq.heapify(candidates)
    results = [(-dist, node) for dist, node in entries]
    heapq.heapify(results)
    while len(results) > ef:
        heapq.heappop(results)
    while candidates:
        dist, node = heapq.heappop(candidates)
        if dist > -results[0][0] and len(results) >= ef:
            break
        unvisited = [n for n in graph.neighbors(node, level)
                     if n not in visited]
        if not unvisited:
            continue
        visited.update(unvisited)
        dists = kernel.many(query, graph.vectors[unvisited])
        for neighbor, neighbor_dist in zip(unvisited, dists.tolist()):
            if len(results) < ef or neighbor_dist < -results[0][0]:
                heapq.heappush(candidates, (neighbor_dist, neighbor))
                heapq.heappush(results, (-neighbor_dist, neighbor))
                if len(results) > ef:
                    heapq.heappop(results)
    return sorted((-negated, node) for negated, node in results)


def search_candidates(index, query, k, ef=None):
    """``HnswIndex.search_candidates`` on the oracle (counts on
    ``index.kernel`` like the real one)."""
    graph, kernel = index.graph, index.kernel
    effective_ef = max(ef if ef is not None else 2 * k, k)
    query = np.asarray(query, dtype=np.float32).reshape(-1)
    entry = graph.entry_point
    entry_dist = kernel.one(query, graph.vector(entry))
    if graph.max_level > 0:
        entry, entry_dist = greedy_descent(graph, kernel, query, entry,
                                           entry_dist, graph.max_level, 0)
    return search_layer(graph, kernel, query, [(entry_dist, entry)],
                        effective_ef, 0)
