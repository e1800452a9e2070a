"""IVF-Flat: the quantization-family ANN baseline (paper reference [14]).

An inverted-file index partitions the corpus around k-means centroids; a
query scans the ``nprobe`` nearest centroids' lists exhaustively.  It is
the standard non-graph comparator for HNSW-style indexes: cheaper to
build, no graph memory, but it must *scan* where HNSW *navigates*, so at
equal recall it evaluates far more distances on clustered data.

The benchmark ``benchmarks/test_baseline_ivf.py`` compares IVF-Flat with
the HNSW substrate at matched recall to justify the paper's choice of a
graph index (§2.1).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.kmeans import kmeans
from repro.errors import ConfigError, EmptyIndexError
from repro.hnsw.distance import DistanceKernel

__all__ = ["IvfFlatIndex"]


class IvfFlatIndex:
    """Inverted-file index with exhaustive in-list scans."""

    def __init__(self, dim: int, num_lists: int, seed: int = 0) -> None:
        if dim < 1:
            raise ConfigError(f"dim must be >= 1, got {dim}")
        if num_lists < 1:
            raise ConfigError(f"num_lists must be >= 1, got {num_lists}")
        self.dim = dim
        self.num_lists = num_lists
        self.kernel = DistanceKernel(dim)
        self.seed = seed
        self._centroids: np.ndarray | None = None
        self._list_vectors: list[np.ndarray] = []
        self._list_labels: list[np.ndarray] = []

    # ------------------------------------------------------------------
    @property
    def is_trained(self) -> bool:
        """Whether centroids exist."""
        return self._centroids is not None

    def __len__(self) -> int:
        return sum(len(labels) for labels in self._list_labels)

    def train(self, vectors: np.ndarray,
              labels: Sequence[int] | None = None) -> None:
        """Cluster the corpus and populate the inverted lists."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if vectors.shape[1] != self.dim:
            raise ConfigError(
                f"expected dim {self.dim}, got {vectors.shape[1]}")
        if labels is None:
            labels = np.arange(vectors.shape[0], dtype=np.int64)
        else:
            labels = np.asarray(list(labels), dtype=np.int64)
            if len(labels) != vectors.shape[0]:
                raise ConfigError(
                    f"{vectors.shape[0]} vectors but {len(labels)} labels")
        rng = np.random.default_rng(self.seed)
        lists = min(self.num_lists, vectors.shape[0])
        result = kmeans(vectors, lists, rng)
        self._centroids = result.centroids
        self._list_vectors = []
        self._list_labels = []
        for cluster in range(lists):
            member_rows = np.flatnonzero(result.assignments == cluster)
            self._list_vectors.append(vectors[member_rows])
            self._list_labels.append(labels[member_rows])

    # ------------------------------------------------------------------
    def add(self, vector: np.ndarray, label: int) -> int:
        """Append one vector to its nearest centroid's list."""
        if not self.is_trained:
            raise EmptyIndexError("train the index before adding")
        vector = np.asarray(vector, dtype=np.float32).reshape(1, -1)
        assert self._centroids is not None
        target = int(np.argmin(self.kernel.many(vector[0],
                                                self._centroids)))
        self._list_vectors[target] = (
            np.vstack([self._list_vectors[target], vector])
            if len(self._list_vectors[target])
            else vector)
        self._list_labels[target] = np.append(self._list_labels[target],
                                              np.int64(label))
        return target

    def search(self, query: np.ndarray, k: int,
               nprobe: int = 4) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` by scanning the ``nprobe`` nearest lists."""
        if not self.is_trained or len(self) == 0:
            raise EmptyIndexError("search on an empty IVF index")
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        if nprobe < 1:
            raise ConfigError(f"nprobe must be >= 1, got {nprobe}")
        query = np.asarray(query, dtype=np.float32).reshape(-1)
        assert self._centroids is not None
        centroid_dists = self.kernel.many(query, self._centroids)
        probes = np.argsort(centroid_dists)[:nprobe]
        candidates: list[tuple[float, int]] = []
        for list_id in probes:
            vectors = self._list_vectors[list_id]
            if len(vectors) == 0:
                continue
            dists = self.kernel.many(query, vectors)
            candidates.extend(
                zip(dists.tolist(),
                    self._list_labels[list_id].tolist()))
        candidates.sort()
        top = candidates[:k]
        return (np.array([label for _, label in top], dtype=np.int64),
                np.array([dist for dist, _ in top], dtype=np.float32))

    # ------------------------------------------------------------------
    def list_sizes(self) -> np.ndarray:
        """Population of each inverted list."""
        return np.array([len(labels) for labels in self._list_labels],
                        dtype=np.int64)

    def reset_compute_counter(self) -> int:
        """Zero the distance counter; returns the old value."""
        return self.kernel.reset_counter()

    @property
    def compute_count(self) -> int:
        """Distance evaluations since the last reset."""
        return self.kernel.num_evaluations
