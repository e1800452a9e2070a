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

The hot loops are restructured around whole-array NumPy calls, in three
pieces:

* **The column source.**  The selector ORs one column of
  candidate-vs-selected distances per *accepted* neighbour into an
  occlusion mask instead of one ``kernel.many`` call per examined
  candidate.  A batch of inserts (:meth:`HnswIndex.add`) keeps the rows
  ``insert`` computes anyway in a :class:`PairTable`, and the column is a
  gather from it — a pair's distance is evaluated once per build, not
  once per accepted neighbour per insert.  Without a table (a lone
  ``add_one``, a graph past ``TABLE_NODES_MAX``) the column is an einsum
  over the gathered candidate matrix.
* **The per-level block.**  At each level an insert adds all its reverse
  edges first, then prunes every list that went over its bound.  The
  prunes are independent — each rewrites only its own list — so under a
  pair table the lists gather their ``D[c, c']`` blocks in one fancy
  index, and Algorithm 4 runs per list as an integer-bitmask loop
  (:func:`_prune_block`).  Without a table each list prunes on columns.
* **The reach sweep.**  While a graph holds no more than
  ``ef_construction`` nodes the construction beam can never fill, so it
  visits exactly the nodes reachable from its seeds;
  :func:`_sweep_layer_table` collects that set without the beam's heaps.

All three produce the graphs and evaluation counts of the textbook
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
    that predate the batch — a deserialized graph being appended to, as
    a rebuild does — get their rows up front (:meth:`for_batch`): each
    node's uncounted ``l2_table`` row against the nodes before it, the
    row ``insert`` would have kept for it, mirrored as :meth:`append`
    does (half the pairs).  So every node has a row and every overfull
    list prunes on one gathered block (:func:`_prune_block`) — for a
    rebuild's appends, whose overfull lists name base nodes, about half
    the wall time of pruning them on einsum columns, for the same graph.
    Reads are uncounted like ``l2_table``; callers credit
    ``kernel.num_evaluations`` as the textbook loop would.

    Owned by the batch (:meth:`HnswIndex.add`), never by the index: at
    most ``TABLE_NODES_MAX² × 4 B`` = 16 MiB, gone when the batch returns.
    """

    def __init__(self, capacity: int) -> None:
        #: Rows are kept for node ids ``0 <= id < capacity``.
        self.capacity = capacity
        self._rows = np.zeros((capacity, capacity), dtype=np.float32)

    @classmethod
    def for_batch(cls, graph: LayeredGraph, kernel: DistanceKernel,
                  batch: int) -> "PairTable | None":
        """A table for ``batch`` inserts into ``graph``, capped at
        ``TABLE_NODES_MAX`` nodes, with the graph's nodes' rows already
        in it; None for a graph already at the cap."""
        existing = len(graph)
        capacity = min(existing + batch, TABLE_NODES_MAX)
        if capacity <= existing:
            return None
        table = cls(capacity)
        vectors = graph.vectors
        for node in range(existing):
            table.append(node, kernel.l2_table(vectors[node],
                                               vectors[:node]))
        return table

    def append(self, node: int, row: np.ndarray) -> None:
        """Record node ``node``'s distances to nodes ``0..node-1``."""
        self._rows[node, :node] = row
        self._rows[:node, node] = row

    def column(self, node: int,
               others: "np.ndarray | list[int]") -> np.ndarray:
        """``node``'s distance to each node id in ``others``."""
        return self._rows[node, others]

    def block(self, rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """``D[r, c]`` for every ``r`` of ``rows`` and ``c`` of
        ``columns``, broadcast together."""
        return self._rows.reshape(-1).take(rows * self.capacity + columns)


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
        if pairs is not None:
            column = pairs.column(nodes[free], node_index)
        else:
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


def _prune(graph: LayeredGraph, kernel: DistanceKernel, owners: list[int],
           level: int, bound: int, pairs: PairTable | None) -> None:
    """Shrink every list of ``owners`` at ``level`` that is over ``bound``.

    Under a pair table they are pruned together from gathered blocks
    (:func:`_prune_block`, grouped by length so each group is one
    rectangular gather); without one, each on columns
    (:func:`_prune_columns`).  Each prune rewrites only its own list, so
    the order they run in changes nothing.
    """
    adjacency = graph.adjacency
    blocks: dict[int, list[int]] = {}
    for owner in owners:
        listed = adjacency[owner][level]
        if len(listed) <= bound:
            continue
        if pairs is not None:
            blocks.setdefault(len(listed), []).append(owner)
        else:
            _prune_columns(graph, kernel, owner, level, bound)
    for group in blocks.values():
        _prune_block(graph, kernel, group, level, bound, pairs)


def _prune_columns(graph: LayeredGraph, kernel: DistanceKernel, owner: int,
                   level: int, bound: int) -> None:
    """Algorithm 4 over ``owner``'s list, on einsum columns."""
    listed = graph.adjacency[owner][level]
    dists = kernel.many(graph.vector(owner), graph.vectors[listed])
    graph.set_neighbors(owner, level, select_neighbors_heuristic(
        graph, kernel, list(zip(dists.tolist(), listed)), bound))


def _prune_block(graph: LayeredGraph, kernel: DistanceKernel,
                 owners: list[int], level: int, bound: int,
                 pairs: PairTable) -> None:
    """Algorithm 4 over equally long lists, all read off ``pairs``.

    One gather yields each list's distances to its owner, one more the
    ``D[c, c']`` block of every list, sorted into the textbook's
    ``(distance, node)`` order.  Candidate ``i``'s row of the block,
    ``D[c_i, c_j] < d(owner, c_j)``, packs into an integer bitmask of the
    candidates it occludes, so the in-order acceptance is a loop of
    integer ORs that jumps from one unoccluded candidate to the next.
    It credits what :func:`_select_vectorized` credits: every candidate
    it passes, and the one it lands on, against every neighbour accepted
    so far.
    """
    adjacency = graph.adjacency
    lists = np.array([adjacency[owner][level] for owner in owners],
                     dtype=np.intp)
    count, width = lists.shape
    starts = np.arange(0, count * width, width)[:, None]
    to_owner = pairs.block(lists, np.array(owners, dtype=np.intp)[:, None])
    # Flat positions that put each list in ``(distance, node)`` order.
    order = np.lexsort((lists, to_owner)) + starts
    lists = lists.take(order)
    to_owner = to_owner.take(order)
    occludes = (pairs.block(lists[:, :, None], lists[:, None, :])
                < to_owner[:, None, :])
    # Bit j of candidate i's mask: i is closer to j than j's owner is.
    # Packed little-endian into 64-bit words; lists past 64 candidates
    # stitch their words together in Python.
    packed = np.packbits(occludes, axis=2, bitorder="little")
    words = np.zeros((count, width, -(-width // 64) * 8), dtype=np.uint8)
    words[:, :, :packed.shape[2]] = packed
    words = words.view("<u8")
    masks = words[:, :, 0].tolist()
    for word in range(1, words.shape[2]):
        masks = [[low | high << 64 * word for low, high in zip(mine, more)]
                 for mine, more in zip(masks, words[:, :, word].tolist())]

    evaluations = count * width  # each list's distances to its owner
    everyone = (1 << width) - 1
    picks: list[int] = []  # flat positions of the accepted candidates
    for start, mask in zip(range(0, count * width, width), masks):
        accepted = 0
        occluded = 0
        cursor = 0
        while accepted < bound:
            # Candidates not yet examined that nothing accepted occludes.
            free = ~occluded & (everyone >> cursor << cursor)
            if not free:
                evaluations += (width - cursor) * accepted
                break
            pick = (free & -free).bit_length() - 1
            evaluations += (pick - cursor + 1) * accepted
            picks.append(start + pick)
            accepted += 1
            occluded |= mask[pick]
            cursor = pick + 1
    # Accepted candidates first, then the pruned ones as backfill, each
    # in examination order, cut at the bound: a list that accepted
    # ``bound`` stopped there, and one that accepted fewer examined all.
    pruned = np.ones(count * width, dtype=bool)
    pruned[picks] = False
    kept = np.argsort(pruned.reshape(count, width), axis=1,
                      kind="stable")[:, :bound] + starts
    for owner, neighbors in zip(owners, lists.take(kept).tolist()):
        adjacency[owner][level] = neighbors
    kernel.num_evaluations += evaluations


def _sweep_layer_table(graph: LayeredGraph, kernel: DistanceKernel,
                       table: list[float], entries: list[tuple[float, int]],
                       level: int) -> list[tuple[float, int]]:
    """:func:`search_layer_table` for a beam that can never fill.

    With no more nodes in the graph than the beam is wide, the beam
    accepts every node it meets and stops only when nothing new is
    reachable: its result is the seeds plus everything reachable from
    them at ``level``, sorted, and it credits one evaluation per node
    outside the seeds.  A breadth-first walk over the adjacency finds the
    same set without the heaps.  Seeds keep the distances they came with.
    """
    tags, epoch = graph.acquire_visited()
    reached = [node for _, node in entries]
    for node in reached:
        tags[node] = epoch
    adjacency = graph.adjacency
    for node in reached:  # grows while walked
        for neighbor in adjacency[node][level]:
            if tags[neighbor] != epoch:
                tags[neighbor] = epoch
                reached.append(neighbor)
    kernel.num_evaluations += len(reached) - len(entries)
    output = list(entries)
    output.extend([(table[node], node) for node in reached[len(entries):]])
    output.sort()
    return output


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

    # Phase 2: search each layer from min(level, old top) down to 0,
    # wiring bidirectional edges as we go.  A graph no larger than the
    # beam is swept instead of beam-searched: same result, same count.
    sweep = table is not None and len(table) <= params.ef_construction
    seeds = [(entry_dist, entry)]
    for current_level in range(min(level, top_level), -1, -1):
        if sweep:
            candidates = _sweep_layer_table(graph, kernel, table, seeds,
                                            current_level)
        elif table is not None:
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
        _prune(graph, kernel, neighbors, current_level,
               params.max_degree(current_level), pairs)
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
