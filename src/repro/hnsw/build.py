"""HNSW construction: level sampling, neighbour selection, insertion,
removal.

Implements Algorithms 1, 3 and 4 of Malkov & Yashunin.  The heuristic
neighbour selector (Algorithm 4) is what gives HNSW graphs their navigable
small-world property: a candidate is kept only if it is closer to the query
than to every already-selected neighbour, which spreads edges across
directions instead of clustering them.

Removal (:func:`remove_nodes`) is the inverse edit and reuses that
selector: the lists that named a removed node are re-chosen from what is
left around the hole, everything else stays where it was, so a delete
costs what it removes rather than a rebuild of the graph.

The hot loops are restructured around whole-array NumPy calls: inserts
run on a precomputed distance table (:func:`search_layer_table`), and
the selector ORs one column of candidate-vs-selected distances per
*accepted* neighbour into an occlusion mask instead of one
``kernel.many`` call per examined candidate.

Where the column comes from is the only fork.  A batch of inserts
(:meth:`HnswIndex.add`) keeps the rows ``insert`` computes anyway in a
:class:`PairTable`, and the column is a gather from it — a pair's
distance is evaluated once per build, not once per accepted neighbour
per insert.  Without a table (a lone ``add_one``, a graph past
``TABLE_NODES_MAX``) the column is an einsum over the gathered candidate
matrix.

Both produce the graphs and evaluation counts of the textbook
per-candidate loops (kept test-side as the oracle,
``tests/hnsw/reference_build.py``): the column ``|c - s|²`` equals the
textbook row ``|s - c|²`` exactly whichever operand the subtraction
started from (float negation is exact, and both are the same float32
last-axis einsum), candidates are examined in the textbook's sorted
``(distance, node)`` order, and the counter is credited for every
comparison the textbook loop would evaluate.
"""

from __future__ import annotations

import math
import random

import numpy as np

from repro.hnsw.distance import DistanceKernel
from repro.hnsw.graph import LayeredGraph
from repro.hnsw.params import HnswParams
from repro.hnsw.search import (TABLE_NODES_MAX, greedy_descent,
                               greedy_descent_table, search_layer,
                               search_layer_table)

__all__ = ["sample_level", "select_neighbors_heuristic", "insert",
           "remove_nodes"]


class PairTable:
    """Squared-L2 distances from each node a batch of inserts adds to
    every node of the graph — the selector's and the pruner's ``D[s, c]``.

    :func:`insert` already evaluates the new node against every existing
    node (``kernel.l2_table``); that row *is* the pair distance the
    selector would re-derive per accepted neighbour (``Σ(v_c − v_s)²`` in
    the same float32 last-axis einsum), and mirrored into the earlier new
    nodes' rows it completes them (float negation is exact).  So a row
    costs nothing to keep and covers every node inserted so far.  Nodes
    that predate the batch — a deserialized graph being appended to — get
    no row: evaluating one costs more than the einsum column it replaces
    unless many later selects reuse it, which appends do not.  Reads are
    uncounted like ``l2_table``; callers credit ``kernel.num_evaluations``
    as the textbook loop would.

    Owned by the batch (:meth:`HnswIndex.add`), never by the index: at
    most ``TABLE_NODES_MAX² × 4 B`` = 16 MiB, gone when the batch returns.
    """

    def __init__(self, first: int, capacity: int) -> None:
        #: Rows are kept for node ids ``first <= id < capacity``.
        self._first = first
        self.capacity = capacity
        self._rows = np.zeros((capacity - first, capacity),
                              dtype=np.float32)

    @classmethod
    def for_batch(cls, graph: LayeredGraph,
                  batch: int) -> "PairTable | None":
        """A table for ``batch`` inserts into ``graph``, capped at
        ``TABLE_NODES_MAX`` nodes; None for a graph already at the cap."""
        capacity = min(len(graph) + batch, TABLE_NODES_MAX)
        if capacity <= len(graph):
            return None
        return cls(len(graph), capacity)

    def append(self, node: int, row: np.ndarray) -> None:
        """Record new node ``node``'s distances to nodes ``0..node-1``."""
        own = node - self._first
        self._rows[own, :node] = row
        self._rows[:own, node] = row[self._first:]

    def column(self, node: int,
               others: "np.ndarray | list[int]") -> np.ndarray | None:
        """``node``'s distance to each node id in ``others``, or None for
        a node that predates the batch."""
        if node < self._first:
            return None
        return self._rows[node - self._first, others]


def sample_level(rng: random.Random, params: HnswParams) -> int:
    """Draw a node level from the exponential distribution.

    ``floor(-ln(U) * level_mult)`` with ``U ~ Uniform(0, 1]``, capped at
    ``params.max_level`` when that is set (the meta-HNSW caps at 2).
    """
    uniform = rng.random()
    # rng.random() is in [0, 1); shift away from 0 to avoid log(0).
    level = int(-math.log(1.0 - uniform) * params.level_mult)
    if params.max_level is not None:
        level = min(level, params.max_level)
    return level


def select_neighbors_heuristic(
        graph: LayeredGraph, kernel: DistanceKernel,
        candidates: list[tuple[float, int]], m: int,
        pairs: PairTable | None = None) -> list[int]:
    """Algorithm 4: pick up to ``m`` diverse neighbours from candidates.

    ``candidates`` are ``(distance_to_query, node)`` pairs.  A candidate is
    accepted when it is closer to the query than to any already-accepted
    neighbour; pruned candidates then backfill the remaining slots,
    closest first (hnswlib's ``keepPrunedConnections``).
    ``pairs`` is the in-progress build's distance table, when it has one.
    """
    if m <= 0:
        return []
    if not candidates:
        return []
    return _select_vectorized(graph, kernel, candidates, m, pairs)


def _select_vectorized(
        graph: LayeredGraph, kernel: DistanceKernel,
        candidates: list[tuple[float, int]], m: int,
        pairs: PairTable | None) -> list[int]:
    """Batched Algorithm 4 — bit-identical to the per-candidate loop.

    Each *accepted* neighbour contributes one column of distances to
    every candidate — a gather from ``pairs`` when the build keeps a
    table, else an einsum over the gathered candidate matrix — OR-ed into
    an occlusion mask.  The mask answers "closer to any already-selected
    neighbour?", the textbook loop's per-candidate ``kernel.many`` row,
    for every candidate at once, so the loop steps from accepted
    neighbour to accepted neighbour instead of examining candidates one
    by one.
    """
    # Ascending unique ``(distance, node)`` tuples: the textbook
    # loop's examination order.  Everything below works in that order.
    entries = sorted(candidates)
    nodes = [node for _, node in entries]
    node_index = np.array(nodes, dtype=np.intp)
    cand_vectors = None
    # float64 so the mask comparisons upcast exactly like the textbook's
    # ``float32 row < Python float`` comparisons do.
    cand_dists = np.array([dist for dist, _ in entries], dtype=np.float64)
    occluded = np.zeros(len(entries), dtype=bool)

    selected: list[int] = []
    evaluations = 0
    cursor = 0
    while cursor < len(nodes) and len(selected) < m:
        # Jump to the next candidate no selected neighbour occludes (the
        # first False; argmin lands on ``cursor`` itself when none is
        # left).  The textbook loop evaluates every candidate it passes,
        # and the one it lands on, against all selected neighbours; the
        # columns already did the arithmetic, so only the count is
        # credited.
        free = cursor + int(occluded[cursor:].argmin())
        if occluded[free]:
            evaluations += (len(nodes) - cursor) * len(selected)
            break
        evaluations += (free - cursor + 1) * len(selected)
        cursor = free + 1
        selected.append(nodes[free])
        column = (pairs.column(nodes[free], node_index)
                  if pairs is not None else None)
        if column is None:
            if cand_vectors is None:
                cand_vectors = graph.vectors[node_index]
            diff = cand_vectors - cand_vectors[free]
            column = np.einsum("ij,ij->i", diff, diff)
        occluded |= column < cand_dists
    kernel.num_evaluations += evaluations
    if len(selected) < m:
        # Only reachable with every candidate examined: backfill with the
        # pruned ones, closest first.
        chosen = set(selected)
        selected.extend([node for node in nodes if node not in chosen]
                        [:m - len(selected)])
    return selected


def _prune_node(graph: LayeredGraph, kernel: DistanceKernel, node: int,
                level: int, params: HnswParams,
                pairs: PairTable | None) -> None:
    """Shrink ``node``'s neighbour list at ``level`` back to its bound."""
    bound = params.max_degree(level)
    neighbor_ids = graph.neighbors(node, level)
    if len(neighbor_ids) <= bound:
        return
    node_vector = graph.vector(node)
    dists = pairs.column(node, neighbor_ids) if pairs is not None else None
    if dists is None:
        dists = kernel.many(node_vector, graph.vectors[neighbor_ids])
    else:
        kernel.num_evaluations += len(neighbor_ids)
    candidates = list(zip(dists.tolist(), neighbor_ids))
    kept = select_neighbors_heuristic(graph, kernel, candidates, bound, pairs)
    graph.set_neighbors(node, level, kept)


def insert(graph: LayeredGraph, kernel: DistanceKernel, vector: np.ndarray,
           params: HnswParams, rng: random.Random,
           forced_level: int | None = None,
           pairs: PairTable | None = None) -> int:
    """Algorithm 1: insert ``vector`` into ``graph`` and return its id.

    ``forced_level`` overrides level sampling; d-HNSW's meta index uses it
    to build an exact three-layer hierarchy.  ``pairs`` is the distance
    table of the batch this insert belongs to (:meth:`PairTable.for_batch`);
    the new node's row is recorded in it.
    """
    level = (forced_level if forced_level is not None
             else sample_level(rng, params))
    if graph.entry_point is None:
        return graph.add_node(vector, level)

    query = np.asarray(vector, dtype=np.float32).reshape(-1)
    entry = graph.entry_point
    top_level = graph.max_level
    entry_dist = kernel.one(query, graph.vector(entry))

    # Small graphs take the distance-table fast path: one uncounted
    # einsum evaluates the query against every existing node up front
    # (the new node is added after, so it never appears as its own
    # neighbour), and the traversal credits evaluations as it visits.
    table: list[float] | None = None
    row: np.ndarray | None = None
    if len(graph) <= TABLE_NODES_MAX:
        row = kernel.l2_table(query, graph.vectors)
        table = row.tolist()

    # Phase 1: zoom in through layers above the new node's level.
    if top_level > level:
        if table is not None:
            entry, entry_dist = greedy_descent_table(
                graph, kernel, table, entry, entry_dist, top_level, level)
        else:
            entry, entry_dist = greedy_descent(
                graph, kernel, query, entry, entry_dist, top_level, level)

    node = graph.add_node(query, level)
    if pairs is not None:
        # ``for_batch`` hands out a table only where the branch above ran.
        pairs.append(node, row)

    # Phase 2: beam-search each layer from min(level, old top) down to 0,
    # wiring bidirectional edges as we go.
    seeds = [(entry_dist, entry)]
    for current_level in range(min(level, top_level), -1, -1):
        if table is not None:
            candidates = search_layer_table(
                graph, kernel, table, seeds, params.ef_construction,
                current_level)
        else:
            candidates = search_layer(
                graph, kernel, query, seeds, params.ef_construction,
                current_level)
        neighbors = select_neighbors_heuristic(
            graph, kernel, candidates, params.m, pairs)
        graph.set_neighbors(node, current_level, neighbors)
        for neighbor in neighbors:
            graph.add_edge(neighbor, node, current_level)
            _prune_node(graph, kernel, neighbor, current_level, params,
                        pairs)
        seeds = candidates
    return node


def _bridge_candidates(graph: LayeredGraph, node: int, level: int,
                       dead: set[int]) -> tuple[list[int], list[int]]:
    """``node``'s surviving neighbours at ``level``, and the survivors its
    dead neighbours lead to (list order, first seen, ``node`` excluded).

    A dead neighbour that names nobody alive is walked through to its own
    neighbours, so whatever the size of the hole the survivors on its far
    side are found.  One that does name survivors is not walked through:
    it already spans the hole, and once ``len(dead) * degree`` exceeds
    the graph's size the dead form one connected mass that would hand
    every repaired list most of the graph as candidates.
    """
    neighbors = graph.neighbors(node, level)
    seen = {node, *neighbors}
    kept = [neighbor for neighbor in neighbors if neighbor not in dead]
    hole = [neighbor for neighbor in neighbors if neighbor in dead]
    bridged: list[int] = []
    for gone in hole:  # grows while walked
        beyond = graph.neighbors(gone, level)
        alive = [other for other in beyond
                 if other not in dead and other != node]
        for other in alive or beyond:
            if other not in seen:
                seen.add(other)
                (bridged if alive else hole).append(other)
    return kept, bridged


def remove_nodes(graph: LayeredGraph, kernel: DistanceKernel,
                 dead: set[int], params: HnswParams) -> list[int]:
    """Unlink ``dead`` from ``graph`` in place and repair around the holes.

    Delete consolidation (FreshDiskANN Alg. 4, hnswlib's
    ``repairConnectionsForUpdate``): every surviving list that names a
    dead node is re-chosen by :func:`select_neighbors_heuristic` from its
    surviving neighbours plus the survivors its dead neighbours led to;
    a list without a dead neighbour is not touched.  The cost follows the
    holes, not the size of the graph.

    Candidates are gathered against the pre-removal adjacency and every
    list is re-chosen before any is written back, so the outcome does not
    depend on the order lists are visited in, and no random number is
    drawn: the repaired graph is a pure function of ``(graph, dead)``.
    Like an insert's pruning, a re-chosen list may drop some node's last
    in-edge (:meth:`LayeredGraph.unreachable`); measured at ``m >= 8``
    that strands fewer than 1 survivor per 1000 removed nodes.

    Survivors keep their relative order under one id remap; the return
    value lists their old ids (new id = position).  The entry point stays
    if it survives and is otherwise the lowest-id survivor of the highest
    remaining layer.  Removing every node leaves a valid empty graph.
    """
    if not dead:
        return list(range(len(graph)))
    strays = sorted(node for node in dead if not 0 <= node < len(graph))
    if strays:
        raise IndexError(
            f"nodes to remove out of range [0, {len(graph)}): {strays}")
    holes: list[tuple[int, int, list[int]]] = []
    for node, layers in enumerate(graph.adjacency):
        if node in dead:
            continue
        for level, neighbors in enumerate(layers):
            if dead.isdisjoint(neighbors):
                continue
            kept, bridged = _bridge_candidates(graph, node, level, dead)
            # The dead are dropped from the list right away — only dead
            # nodes' lists are walked above, so no later bridge reads it.
            layers[level] = kept
            holes.append((node, level, kept + bridged))

    repaired: list[list[int]] = []
    for node, level, candidates in holes:
        vector = graph.vector(node)
        dists = kernel.many(vector, graph.vectors[candidates])
        repaired.append(select_neighbors_heuristic(
            graph, kernel, list(zip(dists.tolist(), candidates)),
            params.max_degree(level)))
    for (node, level, _), neighbors in zip(holes, repaired):
        graph.adjacency[node][level] = neighbors

    keep = [node for node in range(len(graph)) if node not in dead]
    new_id = {old: new for new, old in enumerate(keep)}
    adjacency = [[[new_id[neighbor] for neighbor in neighbors]
                  for neighbors in graph.adjacency[node]] for node in keep]
    entry = graph.entry_point
    # One gather into fresh writable storage (the deserializer's store is
    # a frozen view over the blob).
    graph.bulk_load(graph.vectors[keep], adjacency, copy=False)
    graph.max_level = max(map(len, adjacency), default=0) - 1
    if entry in dead:
        entry = next((node for node, layers in enumerate(adjacency)
                      if len(layers) > graph.max_level), None)
    else:
        entry = new_id[entry]
    graph.entry_point = entry
    return keep
