"""Vamana: the flat navigable graph of the DiskANN lineage.

The paper's §2.1 credits graph indexes ("[6, 20]") — reference [6] is
NSG, the flat single-layer navigable graph family that Vamana refined.
This from-scratch Vamana gives the benchmarks a second graph index to
compare HNSW against: one layer, fixed degree bound ``r``, built by
iterative re-insertion with the *robust prune* rule (keep a candidate
only while it is not ``alpha``-dominated by an already-kept neighbour).

It reuses the HNSW substrate's :class:`LayeredGraph` (everything at
level 0) and beam search, so serialization and counted distances come
for free.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigError, EmptyIndexError
from repro.hnsw.distance import DistanceKernel
from repro.hnsw.graph import LayeredGraph
from repro.hnsw.search import knn_from_candidates, search_layer

__all__ = ["VamanaIndex"]


class VamanaIndex:
    """Single-layer navigable graph with robust pruning."""

    def __init__(self, dim: int, r: int = 16, alpha: float = 1.2,
                 ef_construction: int = 64, seed: int = 0) -> None:
        if dim < 1:
            raise ConfigError(f"dim must be >= 1, got {dim}")
        if r < 2:
            raise ConfigError(f"r must be >= 2, got {r}")
        if alpha < 1.0:
            raise ConfigError(f"alpha must be >= 1.0, got {alpha}")
        if ef_construction < 1:
            raise ConfigError(
                f"ef_construction must be >= 1, got {ef_construction}")
        self.dim = dim
        self.r = r
        self.alpha = alpha
        self.ef_construction = ef_construction
        self.seed = seed
        self.kernel = DistanceKernel(dim)
        self.graph = LayeredGraph(dim)
        self.labels: list[int] = []
        self._medoid: int | None = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.graph)

    @property
    def medoid(self) -> int | None:
        """The fixed entry point (closest node to the centroid)."""
        return self._medoid

    def build(self, vectors: np.ndarray,
              labels: Sequence[int] | None = None) -> None:
        """Construct the graph over ``vectors`` (two robust-prune passes,
        the second at ``alpha`` as in the DiskANN recipe)."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if vectors.shape[1] != self.dim:
            raise ConfigError(
                f"expected dim {self.dim}, got {vectors.shape[1]}")
        if labels is not None and len(labels) != vectors.shape[0]:
            raise ConfigError(
                f"{vectors.shape[0]} vectors but {len(labels)} labels")
        count = vectors.shape[0]
        self.graph = LayeredGraph(self.dim)
        self.labels = ([int(x) for x in labels] if labels is not None
                       else list(range(count)))
        for row in range(count):
            self.graph.add_node(vectors[row], level=0)
        if count == 0:
            self._medoid = None
            return

        rng = np.random.default_rng(self.seed)
        # Random bootstrap graph: r out-edges per node.
        for node in range(count):
            if count > 1:
                others = rng.choice(count - 1,
                                    size=min(self.r, count - 1),
                                    replace=False)
                neighbors = [int(o) if o < node else int(o) + 1
                             for o in others]
                self.graph.set_neighbors(node, 0, neighbors)

        centroid = vectors.mean(axis=0)
        self._medoid = int(np.argmin(self.kernel.many(centroid, vectors)))

        for pass_alpha in (1.0, self.alpha):
            for node in rng.permutation(count):
                node = int(node)
                self._reinsert(node, pass_alpha)

    def _reinsert(self, node: int, alpha: float) -> None:
        query = self.graph.vector(node)
        assert self._medoid is not None
        entry_dist = self.kernel.one(query, self.graph.vector(self._medoid))
        visited = search_layer(self.graph, self.kernel, query,
                               [(entry_dist, self._medoid)],
                               self.ef_construction, 0)
        pool = {cand: dist for dist, cand in visited if cand != node}
        for neighbor in self.graph.neighbors(node, 0):
            if neighbor not in pool and neighbor != node:
                pool[neighbor] = self.kernel.one(
                    query, self.graph.vector(neighbor))
        kept = self._robust_prune(node, pool, alpha)
        self.graph.set_neighbors(node, 0, kept)
        for neighbor in kept:
            back = self.graph.neighbors(neighbor, 0)
            if node not in back:
                back.append(node)
                if len(back) > self.r:
                    neighbor_vec = self.graph.vector(neighbor)
                    neighbor_pool = {
                        other: self.kernel.one(
                            neighbor_vec, self.graph.vector(other))
                        for other in back}
                    self.graph.set_neighbors(
                        neighbor, 0,
                        self._robust_prune(neighbor, neighbor_pool,
                                           alpha))

    def _robust_prune(self, node: int, pool: "dict[int, float]",
                      alpha: float) -> list[int]:
        """Keep the closest candidate, discard alpha-dominated ones,
        repeat until ``r`` neighbours are kept."""
        remaining = sorted((dist, cand) for cand, dist in pool.items()
                           if cand != node)
        kept: list[int] = []
        while remaining and len(kept) < self.r:
            dist_to_node, chosen = remaining.pop(0)
            kept.append(chosen)
            if not remaining:
                break
            chosen_vec = self.graph.vector(chosen)
            survivors = []
            candidates = [cand for _, cand in remaining]
            to_chosen = self.kernel.many(
                chosen_vec, self.graph.vectors[candidates])
            for (dist, cand), chord in zip(remaining,
                                           to_chosen.tolist()):
                if alpha * chord > dist:
                    survivors.append((dist, cand))
            remaining = survivors
        return kept

    # ------------------------------------------------------------------
    def search(self, query: np.ndarray, k: int,
               ef: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` beam search from the medoid."""
        if self._medoid is None:
            raise EmptyIndexError("search on empty Vamana index")
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        effective_ef = max(ef if ef is not None else 2 * k, k)
        query = np.asarray(query, dtype=np.float32).reshape(-1)
        entry_dist = self.kernel.one(query,
                                     self.graph.vector(self._medoid))
        candidates = search_layer(self.graph, self.kernel, query,
                                  [(entry_dist, self._medoid)],
                                  effective_ef, 0)
        top = knn_from_candidates(candidates, k)
        return (np.array([self.labels[node] for _, node in top],
                         dtype=np.int64),
                np.array([dist for dist, _ in top], dtype=np.float32))

    def reset_compute_counter(self) -> int:
        """Zero the distance counter; returns the old value."""
        return self.kernel.reset_counter()

    @property
    def compute_count(self) -> int:
        """Distance evaluations since the last reset."""
        return self.kernel.num_evaluations
