"""The layered adjacency structure underlying an HNSW index.

:class:`LayeredGraph` owns the vector storage and per-layer adjacency lists
but knows nothing about distances or search; construction and traversal live
in :mod:`repro.hnsw.build` and :mod:`repro.hnsw.search`.  Keeping the
structure dumb makes it directly serializable by
:mod:`repro.layout.serializer` and easy to property-test.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import DimensionMismatchError

__all__ = ["LayeredGraph"]

_INITIAL_CAPACITY = 64


class LayeredGraph:
    """Growable storage for vectors plus multi-layer adjacency.

    Node ids are dense ints assigned in insertion order.  ``adjacency[node]``
    is a list with one neighbour list per layer the node participates in
    (index 0 = layer 0), so ``len(adjacency[node]) - 1`` is the node's level.

    The graph also owns the scratch its traversals mark visited nodes in
    (:meth:`acquire_visited`), so the structure that is built, decoded and
    cached is searched as it is — nothing is derived from it first.
    """

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = int(dim)
        self._vectors = np.empty((_INITIAL_CAPACITY, dim), dtype=np.float32)
        self._count = 0
        self.adjacency: list[list[list[int]]] = []
        self.entry_point: int | None = None
        self.max_level: int = -1
        self._visited: list[int] = []
        self._visited_epoch = 0

    def __getstate__(self) -> dict:
        # Traversal scratch is not part of the graph: a pickled or copied
        # graph carries none, whatever was searched before.
        return {**self.__dict__, "_visited": [], "_visited_epoch": 0}

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def vectors(self) -> np.ndarray:
        """A view of all stored vectors, shape ``(len(self), dim)``."""
        return self._vectors[: self._count]

    def vector(self, node: int) -> np.ndarray:
        """The vector stored at ``node``."""
        if not 0 <= node < self._count:
            raise IndexError(f"node {node} out of range [0, {self._count})")
        return self._vectors[node]

    def level_of(self, node: int) -> int:
        """The highest layer ``node`` participates in."""
        return len(self.adjacency[node]) - 1

    def add_node(self, vector: np.ndarray, level: int) -> int:
        """Append a node at ``level`` and return its id.

        The caller is responsible for wiring edges afterwards; a freshly
        added node has empty neighbour lists on all its layers.
        """
        vector = np.asarray(vector, dtype=np.float32).reshape(-1)
        if vector.shape[0] != self.dim:
            raise DimensionMismatchError(self.dim, vector.shape[0])
        if level < 0:
            raise ValueError(f"level must be >= 0, got {level}")
        if self._count == self._vectors.shape[0]:
            self._grow()
        node = self._count
        self._vectors[node] = vector
        self._count += 1
        self.adjacency.append([[] for _ in range(level + 1)])
        if level > self.max_level:
            self.max_level = level
            self.entry_point = node
        elif self.entry_point is None:
            self.entry_point = node
        return node

    def bulk_load(self, vectors: np.ndarray,
                  adjacency: list[list[list[int]]],
                  copy: bool = True) -> None:
        """Replace all contents with pre-parsed arrays in one step.

        The deserializer's fast path: with ``copy=True`` (default)
        ``vectors`` is copied wholesale into writable storage; with
        ``copy=False`` a float32 C-contiguous source is *adopted* without
        copying — the zero-copy decode path hands a read-only
        ``frombuffer`` view over remote memory straight to a frozen graph,
        and a later ``add_node`` migrates to fresh writable storage via
        ``_grow``.  ``adjacency`` is adopted as-is either way, so the
        caller must hand over fresh mutable lists with ids already
        validated against ``len(vectors)``.  ``entry_point`` /
        ``max_level`` are left for the caller to set from its own
        metadata.
        """
        vectors = np.atleast_2d(vectors)
        count = vectors.shape[0]
        if count and vectors.shape[1] != self.dim:
            raise DimensionMismatchError(self.dim, vectors.shape[1])
        if len(adjacency) != count:
            raise ValueError(
                f"{count} vectors but adjacency for {len(adjacency)} nodes")
        if (not copy and count and vectors.dtype == np.float32
                and vectors.flags.c_contiguous):
            self._vectors = vectors
        else:
            capacity = max(_INITIAL_CAPACITY, count)
            store = np.empty((capacity, self.dim), dtype=np.float32)
            store[:count] = vectors
            self._vectors = store
        self._count = count
        self.adjacency = adjacency

    def _grow(self) -> None:
        new_capacity = max(_INITIAL_CAPACITY, self._vectors.shape[0] * 2)
        grown = np.empty((new_capacity, self.dim), dtype=np.float32)
        grown[: self._count] = self._vectors[: self._count]
        self._vectors = grown

    def materialize(self) -> bool:
        """Replace an adopted read-only vector store with a private copy.

        The zero-copy decode path (:meth:`bulk_load` with ``copy=False``)
        leaves the store as a read-only ``frombuffer`` view over remote
        region memory; before that memory can be rewritten (extent
        reclamation, replica repair) the view must stop aliasing it.
        Returns True if a copy was made, False if storage was already
        private.
        """
        if self._vectors.flags.writeable:
            return False
        self._vectors = np.array(self._vectors, dtype=np.float32, order="C")
        return True

    # ------------------------------------------------------------------
    # Traversal scratch
    # ------------------------------------------------------------------
    def acquire_visited(self) -> tuple[list[int], int]:
        """Start a traversal: returns ``(tags, epoch)``.

        hnswlib's VisitedListPool pattern: a node is visited iff
        ``tags[node] == epoch``, and every call hands out a fresh epoch,
        so marking is a list store and clearing is free — no per-query
        ``set``, no O(n) reset.  Tags are a plain Python list (the loops
        touch one node at a time), grown here to ``len(self)``.  One
        traversal per graph at a time: the next call retires the previous
        epoch.
        """
        tags = self._visited
        if len(tags) < self._count:
            tags.extend([0] * (self._count - len(tags)))
        self._visited_epoch += 1
        return tags, self._visited_epoch

    # ------------------------------------------------------------------
    # Edge management
    # ------------------------------------------------------------------
    def neighbors(self, node: int, level: int) -> list[int]:
        """The (mutable) neighbour list of ``node`` at ``level``."""
        return self.adjacency[node][level]

    def set_neighbors(self, node: int, level: int,
                      neighbors: list[int]) -> None:
        """Replace the neighbour list of ``node`` at ``level``."""
        self.adjacency[node][level] = list(neighbors)

    def add_edge(self, src: int, dst: int, level: int) -> None:
        """Add a directed edge ``src -> dst`` at ``level`` (no dedup)."""
        self.adjacency[src][level].append(dst)

    def nodes_at_level(self, level: int) -> Iterator[int]:
        """Yield every node whose top layer is at least ``level``."""
        for node, layers in enumerate(self.adjacency):
            if len(layers) > level:
                yield node

    # ------------------------------------------------------------------
    # Invariants (used by tests and the serializer round-trip check)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if structural invariants are violated.

        Checked: entry point exists iff nonempty and tops the hierarchy;
        neighbour ids are valid nodes that also participate in that layer;
        no self-loops; no duplicate neighbours.
        """
        if self._count == 0:
            assert self.entry_point is None and self.max_level == -1
            return
        assert self.entry_point is not None
        assert self.level_of(self.entry_point) == self.max_level
        for node, layers in enumerate(self.adjacency):
            for level, neighbor_list in enumerate(layers):
                seen: set[int] = set()
                for neighbor in neighbor_list:
                    assert 0 <= neighbor < self._count, (
                        f"node {node} L{level}: neighbour {neighbor} "
                        f"out of range")
                    assert neighbor != node, (
                        f"node {node} L{level}: self-loop")
                    assert neighbor not in seen, (
                        f"node {node} L{level}: duplicate {neighbor}")
                    assert len(self.adjacency[neighbor]) > level, (
                        f"node {node} L{level}: neighbour {neighbor} "
                        f"absent from layer")
                    seen.add(neighbor)

    def unreachable(self, level: int = 0) -> list[int]:
        """Nodes of ``level`` a walk from the entry point never meets.

        HNSW does not guarantee an empty answer (re-choosing a list may
        drop a node's last in-edge, on insert as on removal), so this is
        a quality signal, not part of :meth:`check_invariants`: ``fsck``
        reports it as a warning, and the removal tests bound how often
        :meth:`HnswIndex.remove <repro.hnsw.index.HnswIndex.remove>`
        strands a node that was reachable before.
        """
        if self.entry_point is None or level > self.max_level:
            return []
        met = {self.entry_point}
        frontier = [self.entry_point]
        for node in frontier:  # grows while walked
            for neighbor in self.adjacency[node][level]:
                if neighbor not in met:
                    met.add(neighbor)
                    frontier.append(neighbor)
        return [node for node in self.nodes_at_level(level)
                if node not in met]

    def memory_bytes(self) -> int:
        """Approximate in-memory footprint (vectors + adjacency ids)."""
        vector_bytes = self._count * self.dim * 4
        edge_bytes = sum(
            4 * len(neighbor_list)
            for layers in self.adjacency for neighbor_list in layers)
        return vector_bytes + edge_bytes
