"""Test-side oracles for construction and serialization, as written.

* :func:`select_reference` — Algorithm 4 of Malkov & Yashunin as a
  per-candidate loop: one validated ``kernel.many`` row per examined
  candidate against every neighbour accepted so far.
* :func:`use_reference_construction` — routes ``repro.hnsw.build`` onto
  the textbook loops: no distance tables (inserts beam-search hop by hop
  and never sweep, batches keep no pair table, so every prune runs per
  list) and the selector above.
* :func:`serialize_cluster_reference` — the ``DHN2`` wire format packed
  node by node with ``struct``, spelled out here rather than imported
  (the id width, too, is chosen here from the graph).

``repro.hnsw.build`` must build the same graphs and credit the same
evaluation counts, and ``serialize_cluster`` must write the same bytes,
compared with ``==`` — this file is what "the same" means.
"""

from __future__ import annotations

import struct

import numpy as np

import repro.hnsw.build as build_module

_HEADER = struct.Struct("<4sHHIIIii")  # magic, ver, width, cid, n, dim, maxlvl, entry
_ID_CODES = {1: "<B", 2: "<H", 4: "<I"}


def select_reference(graph, kernel, candidates, m):
    ordered = sorted(candidates)
    selected: list[int] = []
    pruned: list[tuple[float, int]] = []
    for dist, node in ordered:
        if len(selected) >= m:
            break
        closer_to_selected = False
        if selected:
            to_selected = kernel.many(
                graph.vector(node), graph.vectors[selected])
            closer_to_selected = bool(np.any(to_selected < dist))
        if closer_to_selected:
            pruned.append((dist, node))
        else:
            selected.append(node)
    for _, node in pruned:
        if len(selected) >= m:
            break
        selected.append(node)
    return selected


def use_reference_construction(monkeypatch) -> None:
    """Build on the textbook loops until ``monkeypatch`` undoes it."""
    monkeypatch.setattr(build_module, "TABLE_NODES_MAX", 0)
    monkeypatch.setattr(
        build_module, "_select_vectorized",
        lambda graph, kernel, candidates, m, pairs:
            select_reference(graph, kernel, candidates, m))


def serialize_cluster_reference(index, cluster_id: int) -> bytes:
    graph = index.graph
    num_nodes = len(graph)
    entry = graph.entry_point if graph.entry_point is not None else -1
    largest = num_nodes - 1
    for node in range(num_nodes):
        for layer in graph.adjacency[node]:
            largest = max(largest, len(layer))
    width = 1 if largest <= 0xFF else 2 if largest <= 0xFFFF else 4
    code = _ID_CODES[width]
    parts = [_HEADER.pack(b"DHN2", 2, width, cluster_id, num_nodes,
                          graph.dim, graph.max_level, entry)]
    for node in range(num_nodes):
        parts.append(struct.pack("<q", index.labels[node]))
    for node in range(num_nodes):
        parts.append(struct.pack("<B", graph.level_of(node)))
    for node in range(num_nodes):
        for layer in graph.adjacency[node]:
            parts.append(struct.pack(code, len(layer)))
    for node in range(num_nodes):
        for layer in graph.adjacency[node]:
            for neighbour in layer:
                parts.append(struct.pack(code, neighbour))
    parts.append(b"\0" * (-sum(map(len, parts)) % 4))
    for node in range(num_nodes):
        parts.append(struct.pack(f"<{graph.dim}f", *graph.vector(node)))
    return b"".join(parts)
