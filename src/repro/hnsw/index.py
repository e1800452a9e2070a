"""The public HNSW index facade.

:class:`HnswIndex` is a complete, standalone HNSW implementation — it is
both a building block of d-HNSW (meta-HNSW and every sub-HNSW are instances
of it) and a usable ANN index in its own right.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

import numpy as np

from repro.errors import (DimensionMismatchError, EmptyIndexError,
                          NonFiniteVectorError)
from repro.hnsw.build import PairTable, insert, remove_nodes
from repro.hnsw.distance import DistanceKernel
from repro.hnsw.graph import LayeredGraph
from repro.hnsw.params import HnswParams
from repro.hnsw.search import (TABLE_NODES_MAX, greedy_descent,
                               greedy_descent_table, knn_from_candidates,
                               search_layer, search_layer_table)

__all__ = ["HnswIndex"]


class HnswIndex:
    """Hierarchical Navigable Small World index over float32 vectors.

    Node ids are dense ints in insertion order.  An optional per-node
    *label* maps internal ids to caller-defined ids (d-HNSW labels
    sub-HNSW nodes with their global dataset ids).

    Examples
    --------
    >>> index = HnswIndex(dim=4, params=HnswParams(m=8, seed=7))
    >>> _ = index.add(np.eye(4, dtype=np.float32))
    >>> labels, dists = index.search(np.array([1, 0, 0, 0]), k=1)
    >>> int(labels[0])
    0
    """

    def __init__(self, dim: int,
                 params: HnswParams | None = None) -> None:
        self.params = params if params is not None else HnswParams()
        self.kernel = DistanceKernel(dim)
        self.graph = LayeredGraph(dim)
        self.labels: list[int] = []
        self._rng = random.Random(self.params.seed)

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Vector dimensionality."""
        return self.graph.dim

    def __len__(self) -> int:
        return len(self.graph)

    # ------------------------------------------------------------------
    def add_one(self, vector: np.ndarray, label: int | None = None,
                forced_level: int | None = None) -> int:
        """Insert one vector; returns its internal node id."""
        vector = np.asarray(vector, dtype=np.float32)
        NonFiniteVectorError.check(vector, "vector")
        return self._insert(vector, label, forced_level, None)

    def _insert(self, vector: np.ndarray, label: int | None,
                forced_level: int | None, pairs: PairTable | None) -> int:
        node = insert(self.graph, self.kernel, vector, self.params,
                      self._rng, forced_level=forced_level, pairs=pairs)
        self.labels.append(label if label is not None else node)
        return node

    def add(self, vectors: np.ndarray,
            labels: Sequence[int] | None = None,
            forced_levels: Sequence[int] | None = None) -> list[int]:
        """Insert a batch of vectors (rows); returns internal node ids.

        ``forced_levels[i]`` overrides level sampling for row ``i``.  The
        batch shares one :class:`~repro.hnsw.build.PairTable`, sized here
        because only the batch knows how far the graph will grow; it is
        dropped once the graph outgrows it and when the batch ends, so a
        batch builds the same graph as :meth:`add_one` row by row, faster.
        """
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        NonFiniteVectorError.check(vectors, "vector")
        if labels is not None and len(labels) != vectors.shape[0]:
            raise ValueError(
                f"got {vectors.shape[0]} vectors but {len(labels)} labels")
        if (forced_levels is not None
                and len(forced_levels) != vectors.shape[0]):
            raise ValueError(
                f"got {vectors.shape[0]} vectors but {len(forced_levels)} "
                f"forced levels")
        pairs = PairTable.for_batch(self.graph, self.kernel,
                                    vectors.shape[0])
        ids = []
        for row_index, vector in enumerate(vectors):
            if pairs is not None and len(self.graph) == pairs.capacity:
                pairs = None
            ids.append(self._insert(
                vector,
                labels[row_index] if labels is not None else None,
                forced_levels[row_index] if forced_levels is not None
                else None,
                pairs))
        return ids

    def remove(self, nodes: Iterable[int]) -> None:
        """Remove internal node ids in place, repairing the lists that
        named them (:func:`~repro.hnsw.build.remove_nodes`).

        Survivors are renumbered densely in their old order and labels
        follow; the cost follows what is removed, not ``len(self)``.
        Draws nothing from the level sampler, so a later :meth:`add`
        continues the same random stream.
        """
        keep = remove_nodes(self.graph, self.kernel, set(nodes),
                            self.params)
        self.labels = [self.labels[node] for node in keep]

    # ------------------------------------------------------------------
    def search(self, query: np.ndarray, k: int,
               ef: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` approximate nearest neighbours of ``query``.

        Returns ``(labels, distances)`` arrays, ascending by distance.
        ``ef`` defaults to ``2k`` and is never below ``k``.
        """
        query = np.asarray(query, dtype=np.float32)
        NonFiniteVectorError.check(query, "query")
        candidates = self.search_candidates(query, k, ef)
        top = knn_from_candidates(candidates, k)
        labels = np.array([self.labels[node] for _, node in top],
                          dtype=np.int64)
        dists = np.array([dist for dist, _ in top], dtype=np.float32)
        return labels, dists

    def search_candidates(self, query: np.ndarray, k: int,
                          ef: int | None = None
                          ) -> list[tuple[float, int]]:
        """Raw beam-search candidates as ``(distance, internal id)``.

        d-HNSW merges candidates across several sub-HNSWs before taking
        the global top-k, so the unclipped list is part of the API.
        """
        query = np.asarray(query, dtype=np.float32).reshape(1, -1)
        return self.search_candidates_batch(query, k, ef)[0]

    def search_candidates_batch(self, queries: np.ndarray, k: int,
                                ef: int | Sequence[int] | None = None,
                                evaluations: list[int] | None = None
                                ) -> list[list[tuple[float, int]]]:
        """:meth:`search_candidates` for a whole batch of queries.

        ``ef`` is one beam for every row, or one beam per row (each never
        below ``k``); a row's walk is the one :meth:`search_candidates`
        makes alone at its beam.

        Small graphs (every d-HNSW sub-cluster and the meta-HNSW) are
        searched on distance tables, the whole batch's computed by one
        chunked einsum (:meth:`DistanceKernel.l2_table`); graphs past
        ``TABLE_NODES_MAX`` evaluate hop by hop.  Each query's walk
        credits a node's distance once, however often its descent and
        beam meet the node.  Results and evaluation counts do not depend
        on the form (see :mod:`repro.hnsw.search`) nor on how queries are
        batched; ``evaluations``, when given, receives each query's count.
        """
        graph, kernel = self.graph, self.kernel
        if len(graph) == 0:
            raise EmptyIndexError("search on empty index")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        if queries.shape[1] != kernel.dim:
            raise DimensionMismatchError(kernel.dim, queries.shape[1])
        if ef is None or isinstance(ef, (int, np.integer)):
            efs = [max(ef if ef is not None else 2 * k, k)] * len(queries)
        else:
            efs = [max(row_ef, k) for row_ef in ef]
            if len(efs) != len(queries):
                raise ValueError(f"got {len(queries)} queries but "
                                 f"{len(efs)} beams")
        entry_point = graph.entry_point
        assert entry_point is not None
        entry_vector = graph.vector(entry_point)
        top_level = graph.max_level
        # ``probes``: what each query's walk reads distances from — its
        # table (Python floats, converted one row at a time) or itself.
        # ``memos``: what each walk has scored, the entry point from the
        # start (the seed evaluation credits it).
        if len(graph) <= TABLE_NODES_MAX:
            descend, beam = greedy_descent_table, search_layer_table
            probes = map(np.ndarray.tolist,
                         kernel.l2_table(queries, graph.vectors))
            memos = ({entry_point} for _ in range(len(queries)))
        else:
            descend, beam = greedy_descent, search_layer
            probes = queries
            # The seed is ``kernel.one``'s dot product, which need not
            # match an einsum row to the last bit; a walk that meets its
            # entry again reads the row the table form would, computed
            # here uncounted because the seed already credited the pair.
            memos = ({entry_point: dist} for dist in kernel.l2_table(
                queries, entry_vector[None]).ravel().tolist())
        outputs = []
        # The matrix was validated above, so per-query seeding can use
        # the check-free kernel entry point (same arithmetic + counting).
        seed_one = kernel.one_prechecked
        for query, probe, scored, row_ef in zip(queries, probes, memos,
                                                efs):
            counted = kernel.num_evaluations
            entry = entry_point
            entry_dist = seed_one(query, entry_vector)
            if top_level > 0:
                entry, entry_dist = descend(graph, kernel, probe, entry,
                                            entry_dist, top_level, 0,
                                            scored)
            outputs.append(beam(graph, kernel, probe, [(entry_dist, entry)],
                                row_ef, 0, scored))
            if evaluations is not None:
                evaluations.append(kernel.num_evaluations - counted)
        return outputs

    def materialize(self) -> bool:
        """Privatize vector storage aliasing remote region memory
        (:meth:`LayeredGraph.materialize`), so the index survives the
        backing extent being rewritten.  Idempotent; returns True if a
        copy was made.
        """
        return self.graph.materialize()

    # ------------------------------------------------------------------
    def layer_sizes(self) -> list[int]:
        """Number of nodes participating in each layer, bottom-up."""
        sizes = [0] * (self.graph.max_level + 1)
        for layers in self.graph.adjacency:
            for level in range(len(layers)):
                sizes[level] += 1
        return sizes

    def reset_compute_counter(self) -> int:
        """Zero the distance-evaluation counter; returns the old value."""
        return self.kernel.reset_counter()

    @property
    def compute_count(self) -> int:
        """Distance evaluations since the last reset."""
        return self.kernel.num_evaluations
