"""Test-side oracles for construction and serialization, as written.

* :func:`select_reference` — Algorithm 4 of Malkov & Yashunin as a
  per-candidate loop: one validated ``kernel.many`` row per examined
  candidate against every neighbour accepted so far.
* :func:`use_reference_construction` — routes ``repro.hnsw.build`` onto
  the textbook loops: no distance tables (inserts beam-search hop by hop
  and never sweep, batches keep no pair table, so every prune runs per
  list) and the selector above.
* :func:`serialize_cluster_reference` — the ``DHN1`` wire format packed
  node by node with ``struct``, spelled out here rather than imported.

``repro.hnsw.build`` must build the same graphs and credit the same
evaluation counts, and ``serialize_cluster`` must write the same bytes,
compared with ``==`` — this file is what "the same" means.
"""

from __future__ import annotations

import struct

import numpy as np

import repro.hnsw.build as build_module

_HEADER = struct.Struct("<4sHHIIIii")  # magic, ver, pad, cid, n, dim, maxlvl, entry
_COUNT = struct.Struct("<I")


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
    parts = [_HEADER.pack(b"DHN1", 1, 0, cluster_id, num_nodes, graph.dim,
                          graph.max_level, entry)]
    parts.append(np.asarray(index.labels, dtype=np.int64).tobytes())
    levels = np.array([graph.level_of(node) for node in range(num_nodes)],
                      dtype=np.int32)
    parts.append(levels.tobytes())
    for node in range(num_nodes):
        for layer in graph.adjacency[node]:
            parts.append(_COUNT.pack(len(layer)))
            parts.append(np.asarray(layer, dtype=np.uint32).tobytes())
    parts.append(graph.vectors.astype(np.float32, copy=False).tobytes())
    return b"".join(parts)
