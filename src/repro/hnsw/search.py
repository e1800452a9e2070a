"""Layer traversal primitives shared by HNSW construction and querying.

Two routines from Malkov & Yashunin:

* :func:`greedy_descent` — the zoom-in phase: at each upper layer, hop to
  the closest neighbour until no improvement (``ef = 1``).
* :func:`search_layer` — the beam search (Algorithm 2): maintain ``ef``
  best candidates, expand the closest unexpanded one, vectorizing the
  per-hop distance computations.

Each routine also has a ``*_table`` twin that runs off a precomputed
distance table (:meth:`DistanceKernel.l2_table`) instead of per-hop
``kernel.many`` calls — the construction-time counterpart of the
compiled table engine in :mod:`repro.hnsw.csr`.  The twins credit
evaluations to the kernel exactly as the traversal visits nodes, so
counters match the reference hop-by-hop arithmetic, and the einsum
table rows are bit-identical to the per-hop row subsets (the last-axis
reduction is row-independent), so results match too.  The table an insert
searches on is also the new node's row of the build's pair table
(:class:`repro.hnsw.build.PairTable`): the same numbers serve the beam
search here and the neighbour selector there.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.hnsw.distance import DistanceKernel
from repro.hnsw.graph import LayeredGraph

__all__ = ["greedy_descent", "greedy_descent_table", "search_layer",
           "search_layer_table", "knn_from_candidates"]


def greedy_descent(graph: LayeredGraph, kernel: DistanceKernel,
                   query: np.ndarray, entry: int, entry_dist: float,
                   from_level: int, to_level: int) -> tuple[int, float]:
    """Greedy walk from ``from_level`` down to (but not into) ``to_level``.

    Returns the closest node found and its distance; that node seeds the
    beam search on ``to_level``.
    """
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


def search_layer(graph: LayeredGraph, kernel: DistanceKernel,
                 query: np.ndarray, entries: list[tuple[float, int]],
                 ef: int, level: int) -> list[tuple[float, int]]:
    """Beam search at one layer (Algorithm 2 of the HNSW paper).

    Parameters
    ----------
    entries:
        Seed ``(distance, node)`` pairs; distances must already be computed.
    ef:
        Beam width — the size of the dynamic candidate list.

    Returns
    -------
    Up to ``ef`` ``(distance, node)`` pairs, sorted ascending by distance.
    """
    if ef < 1:
        raise ValueError(f"ef must be >= 1, got {ef}")
    visited = {node for _, node in entries}
    # Min-heap of frontier candidates to expand.
    candidates = list(entries)
    heapq.heapify(candidates)
    # Max-heap (negated) of the current best ef results.
    results = [(-dist, node) for dist, node in entries]
    heapq.heapify(results)
    while len(results) > ef:
        heapq.heappop(results)

    while candidates:
        dist, node = heapq.heappop(candidates)
        worst = -results[0][0]
        if dist > worst and len(results) >= ef:
            break
        unvisited = [n for n in graph.neighbors(node, level)
                     if n not in visited]
        if not unvisited:
            continue
        visited.update(unvisited)
        dists = kernel.many(query, graph.vectors[unvisited])
        worst = -results[0][0]
        for neighbor, neighbor_dist in zip(unvisited, dists.tolist()):
            if len(results) < ef or neighbor_dist < worst:
                heapq.heappush(candidates, (neighbor_dist, neighbor))
                heapq.heappush(results, (-neighbor_dist, neighbor))
                if len(results) > ef:
                    heapq.heappop(results)
                worst = -results[0][0]
    output = [(-negated, node) for negated, node in results]
    output.sort()
    return output


def greedy_descent_table(graph: LayeredGraph, kernel: DistanceKernel,
                         table: list[float], entry: int, entry_dist: float,
                         from_level: int, to_level: int) -> tuple[int, float]:
    """Table-engine twin of :func:`greedy_descent`.

    ``table`` holds the query's distance to every node (Python floats from
    :meth:`DistanceKernel.l2_table`).  The reference evaluates *all*
    neighbours of the current node per hop — revisits included — so the
    same count is credited here per hop; the first-minimum tie-break of
    ``np.argmin`` is preserved by the strict ``<`` scan.
    """
    current, current_dist = entry, entry_dist
    adjacency = graph.adjacency
    evaluations = 0
    for level in range(from_level, to_level, -1):
        improved = True
        while improved:
            improved = False
            neighbor_ids = adjacency[current][level]
            if not neighbor_ids:
                continue
            evaluations += len(neighbor_ids)
            best = neighbor_ids[0]
            best_dist = table[best]
            for neighbor in neighbor_ids:
                neighbor_dist = table[neighbor]
                if neighbor_dist < best_dist:
                    best = neighbor
                    best_dist = neighbor_dist
            if best_dist < current_dist:
                current = best
                current_dist = best_dist
                improved = True
    kernel.num_evaluations += evaluations
    return current, current_dist


def search_layer_table(graph: LayeredGraph, kernel: DistanceKernel,
                       table: list[float], entries: list[tuple[float, int]],
                       ef: int, level: int) -> list[tuple[float, int]]:
    """Table-engine twin of :func:`search_layer`.

    A node's distance is a list lookup, so no per-hop NumPy call remains.
    One evaluation is credited per newly visited neighbour — exactly the
    rows the reference hands to ``kernel.many`` — including neighbours
    that fail the beam test; dead pops and the termination pop credit
    nothing, matching the reference accounting.
    """
    if ef < 1:
        raise ValueError(f"ef must be >= 1, got {ef}")
    visited = {node for _, node in entries}
    candidates = list(entries)
    heapq.heapify(candidates)
    results = [(-dist, node) for dist, node in entries]
    heapq.heapify(results)
    while len(results) > ef:
        heapq.heappop(results)

    adjacency = graph.adjacency
    push = heapq.heappush
    pop = heapq.heappop
    pushpop = heapq.heappushpop
    mark = visited.add
    num_results = len(results)
    evaluations = 0
    # ``worst`` tracks ``-results[0][0]`` incrementally: results only
    # changes inside the accept branches, each of which refreshes it.
    worst = -results[0][0]
    # Filling phase: the beam has fewer than ``ef`` members, so the
    # early-termination test cannot fire and every new neighbour is
    # accepted unconditionally.
    while candidates and num_results < ef:
        dist, node = pop(candidates)
        for neighbor in adjacency[node][level]:
            if neighbor not in visited:
                mark(neighbor)
                evaluations += 1
                neighbor_dist = table[neighbor]
                if num_results < ef or neighbor_dist < worst:
                    push(candidates, (neighbor_dist, neighbor))
                    # Fused push + pop-max: identical observables on a
                    # heap of unique ordered tuples.
                    if num_results >= ef:
                        pushpop(results, (-neighbor_dist, neighbor))
                    else:
                        push(results, (-neighbor_dist, neighbor))
                        num_results += 1
                    worst = -results[0][0]
    # Steady phase: the beam is full (``num_results == ef`` for good),
    # so the fill checks drop out of the per-neighbour work entirely.
    while candidates:
        dist, node = pop(candidates)
        if dist > worst:
            break
        for neighbor in adjacency[node][level]:
            if neighbor not in visited:
                mark(neighbor)
                evaluations += 1
                neighbor_dist = table[neighbor]
                if neighbor_dist < worst:
                    push(candidates, (neighbor_dist, neighbor))
                    pushpop(results, (-neighbor_dist, neighbor))
                    worst = -results[0][0]
    kernel.num_evaluations += evaluations
    output = [(-negated, node) for negated, node in results]
    output.sort()
    return output


def knn_from_candidates(candidates: list[tuple[float, int]],
                        k: int) -> list[tuple[float, int]]:
    """The ``k`` closest ``(distance, node)`` pairs, ascending.

    ``heapq.nsmallest`` is O(n log k) rather than the O(n log n) full
    sort, which matters when the beam is much wider than ``k`` (the
    Fig. 6 top-1 sweeps run ef up to 48 with k=1), and returns exactly
    what ``sorted(candidates)[:k]`` would.
    """
    if k <= 0:
        return []
    return heapq.nsmallest(k, candidates)
