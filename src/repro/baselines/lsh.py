"""Random-hyperplane LSH: the hashing-family ANN baseline (reference [7]).

§2.1: "Traditional methods like KD-trees and LSH struggle with
scalability and search accuracy in high-dimensional spaces, leading to
the development of graph-based indexing techniques."  This classic
multi-table signed-random-projection index lets the benchmarks
demonstrate that claim quantitatively.

Each of ``num_tables`` hash tables maps a vector to the sign pattern of
``num_bits`` random hyperplane projections; a query unions its buckets
across tables (optionally with 1-bit multiprobe) and re-ranks the
candidates exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigError, EmptyIndexError
from repro.hnsw.distance import DistanceKernel

__all__ = ["LshIndex"]


class LshIndex:
    """Multi-table random-hyperplane LSH with exact re-ranking."""

    def __init__(self, dim: int, num_tables: int = 8, num_bits: int = 12,
                 seed: int = 0) -> None:
        if dim < 1:
            raise ConfigError(f"dim must be >= 1, got {dim}")
        if num_tables < 1:
            raise ConfigError(f"num_tables must be >= 1, got {num_tables}")
        if not 1 <= num_bits <= 62:
            raise ConfigError(
                f"num_bits must be in [1, 62], got {num_bits}")
        self.dim = dim
        self.num_tables = num_tables
        self.num_bits = num_bits
        rng = np.random.default_rng(seed)
        # planes[t] is (num_bits, dim); bucket key = sign bits packed.
        self._planes = rng.standard_normal(
            (num_tables, num_bits, dim)).astype(np.float32)
        self._tables: list[dict[int, list[int]]] = [
            dict() for _ in range(num_tables)]
        self._vectors: list[np.ndarray] = []
        self._labels: list[int] = []
        self.kernel = DistanceKernel(dim)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._labels)

    def _keys(self, vector: np.ndarray) -> np.ndarray:
        """The vector's bucket key in every table."""
        projections = np.einsum("tbd,d->tb", self._planes, vector)
        bits = (projections >= 0).astype(np.int64)
        weights = (1 << np.arange(self.num_bits, dtype=np.int64))
        return bits @ weights

    def add(self, vector: np.ndarray, label: int | None = None) -> int:
        """Insert one vector; returns its internal row."""
        vector = np.asarray(vector, dtype=np.float32).reshape(-1)
        if vector.shape[0] != self.dim:
            raise ConfigError(
                f"expected dim {self.dim}, got {vector.shape[0]}")
        row = len(self._labels)
        self._vectors.append(vector)
        self._labels.append(label if label is not None else row)
        for table, key in zip(self._tables, self._keys(vector)):
            table.setdefault(int(key), []).append(row)
        return row

    def add_batch(self, vectors: np.ndarray,
                  labels: Sequence[int] | None = None) -> None:
        """Insert many vectors."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if labels is not None and len(labels) != vectors.shape[0]:
            raise ConfigError(
                f"{vectors.shape[0]} vectors but {len(labels)} labels")
        for index, vector in enumerate(vectors):
            self.add(vector, labels[index] if labels is not None else None)

    # ------------------------------------------------------------------
    def search(self, query: np.ndarray, k: int,
               multiprobe: bool = True
               ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k``: union candidate buckets, re-rank exactly.

        ``multiprobe=True`` also visits every 1-bit-flip neighbour
        bucket in each table — the standard trick to trade compute for
        recall without more tables.
        """
        if len(self) == 0:
            raise EmptyIndexError("search on empty LSH index")
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        query = np.asarray(query, dtype=np.float32).reshape(-1)
        rows: set[int] = set()
        for table, key in zip(self._tables, self._keys(query)):
            key = int(key)
            rows.update(table.get(key, ()))
            if multiprobe:
                for bit in range(self.num_bits):
                    rows.update(table.get(key ^ (1 << bit), ()))
        if not rows:
            return (np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.float32))
        ordered = sorted(rows)
        matrix = np.stack([self._vectors[row] for row in ordered])
        dists = self.kernel.many(query, matrix)
        top = np.argsort(dists)[:k]
        return (np.array([self._labels[ordered[i]] for i in top],
                         dtype=np.int64),
                dists[top].astype(np.float32))

    def candidate_count(self, query: np.ndarray,
                        multiprobe: bool = True) -> int:
        """How many candidates a search would re-rank (cost proxy)."""
        query = np.asarray(query, dtype=np.float32).reshape(-1)
        rows: set[int] = set()
        for table, key in zip(self._tables, self._keys(query)):
            key = int(key)
            rows.update(table.get(key, ()))
            if multiprobe:
                for bit in range(self.num_bits):
                    rows.update(table.get(key ^ (1 << bit), ()))
        return len(rows)

    def reset_compute_counter(self) -> int:
        """Zero the distance counter; returns the old value."""
        return self.kernel.reset_counter()

    @property
    def compute_count(self) -> int:
        """Distance evaluations since the last reset."""
        return self.kernel.num_evaluations
