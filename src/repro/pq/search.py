"""PQ-compressed search with exact re-ranking.

:class:`PqRerankIndex` stores only PQ codes plus the codebook; a query
scans the codes with asymmetric distance computation (one table lookup
per subspace per candidate), keeps the best ``rerank`` candidates, and
re-ranks those with exact distances against the full vectors.

In the disaggregated framing this models the *compressed transfer*
option: ship ``num_subspaces`` bytes per vector instead of ``4 * dim``,
then fetch full vectors only for the re-rank set.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigError, EmptyIndexError
from repro.hnsw.distance import DistanceKernel
from repro.pq.codebook import PqCodebook

__all__ = ["PqRerankIndex"]


class PqRerankIndex:
    """Exhaustive ADC scan over PQ codes + exact top-``rerank`` rerank."""

    def __init__(self, codebook: PqCodebook) -> None:
        if not codebook.is_trained:
            raise ConfigError("codebook must be trained first")
        self.codebook = codebook
        self.kernel = DistanceKernel(codebook.dim)
        self._codes = np.empty((0, codebook.num_subspaces), dtype=np.uint8)
        self._vectors = np.empty((0, codebook.dim), dtype=np.float32)
        self._labels: list[int] = []

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._labels)

    @property
    def compressed_bytes(self) -> int:
        """Bytes of PQ codes held (the transfer-size proxy)."""
        return self._codes.nbytes

    @property
    def full_bytes(self) -> int:
        """Bytes the uncompressed vectors would occupy."""
        return self._vectors.nbytes

    def add(self, vectors: np.ndarray,
            labels: Sequence[int] | None = None) -> None:
        """Encode and store rows (full vectors kept for re-ranking)."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if labels is not None and len(labels) != vectors.shape[0]:
            raise ConfigError(
                f"{vectors.shape[0]} vectors but {len(labels)} labels")
        start = len(self._labels)
        self._codes = np.vstack([self._codes,
                                 self.codebook.encode(vectors)])
        self._vectors = np.vstack([self._vectors, vectors])
        self._labels.extend(
            labels if labels is not None
            else range(start, start + vectors.shape[0]))

    # ------------------------------------------------------------------
    def search(self, query: np.ndarray, k: int,
               rerank: int | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` via ADC scan + exact re-ranking.

        ``rerank`` defaults to ``4 * k``; ``rerank=0`` disables
        re-ranking and returns pure ADC results (fully compressed).
        """
        if len(self) == 0:
            raise EmptyIndexError("search on empty PQ index")
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        if rerank is None:
            rerank = 4 * k
        if rerank < 0:
            raise ConfigError(f"rerank must be >= 0, got {rerank}")
        query = np.asarray(query, dtype=np.float32).reshape(-1)

        labels = np.asarray(self._labels, dtype=np.int64)
        approx = self.codebook.adc_distances(query, self._codes)
        if rerank == 0:
            # Lexicographic (distance, id) order — the same tie-break
            # exact_knn uses — so duplicate-distance candidates resolve
            # deterministically across runs and platforms.
            order = np.lexsort((labels, approx))[:k]
            return labels[order], approx[order].astype(np.float32)
        shortlist_size = min(max(rerank, k), len(self))
        shortlist = np.argpartition(approx,
                                    shortlist_size - 1)[:shortlist_size]
        exact = self.kernel.many(query, self._vectors[shortlist])
        order = np.lexsort((labels[shortlist], exact))[:k]
        rows = shortlist[order]
        return labels[rows], exact[order].astype(np.float32)

    def reset_compute_counter(self) -> int:
        """Zero the exact-distance counter; returns the old value."""
        return self.kernel.reset_counter()

    @property
    def compute_count(self) -> int:
        """Exact distance evaluations since the last reset."""
        return self.kernel.num_evaluations
