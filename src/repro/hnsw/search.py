"""The traversal engine: every search in the package runs here.

Two routines from Malkov & Yashunin, each in two forms, all four walking
``LayeredGraph.adjacency`` directly — the structure construction edits
and the decoder fills is the structure that is searched:

* :func:`greedy_descent` — the zoom-in phase: at each upper layer, hop to
  the closest neighbour until no improvement (``ef = 1``).
* :func:`search_layer` — the beam search (Algorithm 2): maintain ``ef``
  best candidates, expand the closest unexpanded one, one vectorized
  distance call per hop over the unvisited neighbours.  Any graph size.
* :func:`greedy_descent_table` / :func:`search_layer_table` — the same
  walks off a precomputed distance table (:meth:`DistanceKernel.l2_table`):
  one *uncounted* einsum evaluates the query against the whole graph up
  front and the hop loop runs on plain Python floats with no per-hop NumPy
  dispatch.  This is the form that serves d-HNSW — every sub-HNSW and the
  meta-HNSW hold a few hundred nodes — and that construction inserts run
  on (the table an insert searches on is also the new node's row of the
  build's :class:`repro.hnsw.build.PairTable`).

Visited nodes are marked in the graph's epoch-tagged list
(:meth:`LayeredGraph.acquire_visited`), not a per-call ``set``.

Equivalence contract (``tests/hnsw/test_csr_equivalence.py``, against the
textbook Algorithm 2 kept test-side in ``tests/hnsw/reference_search.py``):
all four return bit-identical ``(distance, node)`` results *and* credit
exactly the evaluations the textbook loop performs, so counters — and
every simulated latency derived from them — do not depend on the form.
Bitwise safety of the table: NumPy's last-axis einsum reduction is
row-independent, so a full-graph table row equals the per-hop row-subset
evaluation bit for bit.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.hnsw.distance import DistanceKernel
from repro.hnsw.graph import LayeredGraph

__all__ = ["greedy_descent", "search_layer", "greedy_descent_table",
           "search_layer_table", "knn_from_candidates", "TABLE_NODES_MAX"]

#: Largest graph searched (and built) on a distance table.  A table
#: costs one ``O(num_nodes * dim)`` einsum plus a ``tolist`` regardless of
#: how much of the graph the beam actually visits; beyond a couple
#: thousand nodes a beam with typical ``ef`` visits a small fraction of
#: the graph and the per-hop gathers win.  d-HNSW sub-clusters and the
#: meta-HNSW (a few hundred nodes each) sit far below the cutoff.
TABLE_NODES_MAX = 2048


def greedy_descent(graph: LayeredGraph, kernel: DistanceKernel,
                   query: np.ndarray, entry: int, entry_dist: float,
                   from_level: int, to_level: int) -> tuple[int, float]:
    """Greedy walk from ``from_level`` down to (but not into) ``to_level``.

    Returns the closest node found and its distance; that node seeds the
    beam search on ``to_level``.  Every hop evaluates *all* neighbours of
    the current node (no visited filter).  ``query`` must be a float32
    vector of the kernel's width — callers seed the walk through
    ``kernel.one``, which validates it.
    """
    current, current_dist = entry, entry_dist
    adjacency = graph.adjacency
    vectors = graph.vectors
    many = kernel.many_prechecked
    for level in range(from_level, to_level, -1):
        improved = True
        while improved:
            improved = False
            neighbor_ids = adjacency[current][level]
            if not neighbor_ids:
                continue
            dists = many(query, vectors[neighbor_ids])
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
    query:
        A float32 vector of the kernel's width (see :func:`greedy_descent`).
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
    tags, epoch = graph.acquire_visited()
    for _, node in entries:
        tags[node] = epoch
    # Min-heap of frontier candidates to expand.
    candidates = list(entries)
    heapq.heapify(candidates)
    # Max-heap (negated) of the current best ef results.
    results = [(-dist, node) for dist, node in entries]
    heapq.heapify(results)
    while len(results) > ef:
        heapq.heappop(results)

    adjacency = graph.adjacency
    vectors = graph.vectors
    many = kernel.many_prechecked
    push = heapq.heappush
    pop = heapq.heappop
    pushpop = heapq.heappushpop
    num_results = len(results)
    # ``worst`` tracks ``-results[0][0]`` incrementally: results only
    # changes inside the accept branch, which refreshes it.
    worst = -results[0][0]
    while candidates:
        dist, node = pop(candidates)
        if dist > worst and num_results >= ef:
            break
        unvisited = []
        mark = unvisited.append
        for neighbor in adjacency[node][level]:
            if tags[neighbor] != epoch:
                tags[neighbor] = epoch
                mark(neighbor)
        if not unvisited:
            continue
        dists = many(query, vectors[unvisited])
        for neighbor, neighbor_dist in zip(unvisited, dists.tolist()):
            if num_results < ef or neighbor_dist < worst:
                push(candidates, (neighbor_dist, neighbor))
                # push-then-pop-max fused into one sift; heap elements
                # are unique, totally ordered tuples, so every
                # observable (the root and the final content) matches
                # a separate push + pop.
                if num_results >= ef:
                    pushpop(results, (-neighbor_dist, neighbor))
                else:
                    push(results, (-neighbor_dist, neighbor))
                    num_results += 1
                worst = -results[0][0]
    output = [(-negated, node) for negated, node in results]
    output.sort()
    return output


def greedy_descent_table(graph: LayeredGraph, kernel: DistanceKernel,
                         table: list[float], entry: int, entry_dist: float,
                         from_level: int, to_level: int) -> tuple[int, float]:
    """:func:`greedy_descent` off a distance table.

    ``table`` holds the query's distance to every node (Python floats from
    :meth:`DistanceKernel.l2_table`).  The per-hop form evaluates *all*
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
    """:func:`search_layer` off a distance table.

    The mark / evaluate / push phases of a hop fuse into one pure-Python
    loop: a node's distance is a list lookup, so no per-hop NumPy call
    remains.  One evaluation is credited per newly visited neighbour —
    exactly the rows the per-hop form hands to the kernel — including
    neighbours that fail the beam test; dead pops and the termination
    pop credit nothing.
    """
    if ef < 1:
        raise ValueError(f"ef must be >= 1, got {ef}")
    tags, epoch = graph.acquire_visited()
    for _, node in entries:
        tags[node] = epoch
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
            if tags[neighbor] != epoch:
                tags[neighbor] = epoch
                evaluations += 1
                neighbor_dist = table[neighbor]
                if num_results < ef or neighbor_dist < worst:
                    push(candidates, (neighbor_dist, neighbor))
                    # Fused push + pop-max (see search_layer): identical
                    # observables on a heap of unique ordered tuples.
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
            if tags[neighbor] != epoch:
                tags[neighbor] = epoch
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
