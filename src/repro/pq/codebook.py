"""Product quantization: trained codebooks, encoding, reconstruction.

PQ (the compression technique behind the paper's reference [14], FAISS)
splits a vector into ``num_subspaces`` contiguous chunks and replaces
each chunk with the id of its nearest centroid from a per-subspace
codebook of 256 entries — compressing a ``dim x f32`` vector to
``num_subspaces`` bytes (8-bit codes).

In a disaggregated setting PQ is a *bandwidth* lever: shipping codes
instead of floats shrinks cluster transfers by
``4 * dim / num_subspaces`` at the cost of approximate distances; see
``benchmarks/test_ablation_pq_transfer.py``.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.kmeans import kmeans
from repro.errors import ConfigError

__all__ = ["PqCodebook"]

#: Code width: one byte per subspace.
BITS = 8


class PqCodebook:
    """Per-subspace centroid tables trained with k-means."""

    def __init__(self, dim: int, num_subspaces: int = 8,
                 seed: int = 0) -> None:
        if dim < 1:
            raise ConfigError(f"dim must be >= 1, got {dim}")
        if num_subspaces < 1 or dim % num_subspaces != 0:
            raise ConfigError(
                f"num_subspaces ({num_subspaces}) must divide dim ({dim})")
        self.dim = dim
        self.num_subspaces = num_subspaces
        self.num_centroids = 1 << BITS
        self.subspace_dim = dim // num_subspaces
        self.seed = seed
        # (num_subspaces, num_centroids, subspace_dim) after training.
        self._centroids: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def is_trained(self) -> bool:
        """Whether codebooks exist."""
        return self._centroids is not None

    @property
    def code_bytes(self) -> int:
        """Bytes per encoded vector (one byte per subspace code)."""
        return self.num_subspaces

    @property
    def centroids(self) -> np.ndarray:
        """The trained centroid tensor."""
        if self._centroids is None:
            raise ConfigError("codebook is not trained")
        return self._centroids

    def train(self, vectors: np.ndarray, seed: int | None = None) -> None:
        """Fit per-subspace codebooks on a training sample.

        ``seed`` pins the k-means initialization explicitly (defaults to
        the constructor's ``seed``).  Every subspace draws from its own
        ``default_rng([seed, sub])`` stream, so training one subspace
        never consumes another's randomness — codebooks (and therefore
        the cold extents derived from them) are byte-identical across
        rebuilds regardless of subspace evaluation order or the build's
        worker count.
        """
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if vectors.shape[1] != self.dim:
            raise ConfigError(
                f"expected dim {self.dim}, got {vectors.shape[1]}")
        centroids_needed = min(self.num_centroids, vectors.shape[0])
        if centroids_needed < self.num_centroids:
            raise ConfigError(
                f"need >= {self.num_centroids} training vectors for "
                f"{BITS}-bit codes, got {vectors.shape[0]}")
        root = self.seed if seed is None else int(seed)
        tables = np.empty((self.num_subspaces, self.num_centroids,
                           self.subspace_dim), dtype=np.float32)
        for sub in range(self.num_subspaces):
            chunk = vectors[:, sub * self.subspace_dim:
                            (sub + 1) * self.subspace_dim]
            result = kmeans(chunk, self.num_centroids,
                            np.random.default_rng([root, sub]),
                            max_iterations=15)
            tables[sub] = result.centroids
        self._centroids = tables

    def load_centroids(self, tables: np.ndarray) -> None:
        """Adopt pre-trained centroid tables (codebook deserialization)."""
        tables = np.asarray(tables, dtype=np.float32)
        expected = (self.num_subspaces, self.num_centroids,
                    self.subspace_dim)
        if tables.shape != expected:
            raise ConfigError(
                f"centroid tables of shape {tables.shape}, expected "
                f"{expected}")
        self._centroids = tables

    # ------------------------------------------------------------------
    def encode(self, vectors: np.ndarray,
               chunk_rows: int = 4096) -> np.ndarray:
        """Quantize rows to ``(n, num_subspaces)`` uint8 codes.

        Rows are processed ``chunk_rows`` at a time so the transient
        ``(rows, centroids, subspace_dim)`` distance tensor stays bounded
        regardless of corpus size (encoding 200k x 128d in one shot would
        materialize gigabytes).
        """
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if vectors.shape[1] != self.dim:
            raise ConfigError(
                f"expected dim {self.dim}, got {vectors.shape[1]}")
        if chunk_rows < 1:
            raise ConfigError(f"chunk_rows must be >= 1, got {chunk_rows}")
        tables = self.centroids
        codes = np.empty((vectors.shape[0], self.num_subspaces),
                         dtype=np.uint8)
        for start in range(0, vectors.shape[0], chunk_rows):
            block = vectors[start:start + chunk_rows]
            for sub in range(self.num_subspaces):
                chunk = block[:, sub * self.subspace_dim:
                              (sub + 1) * self.subspace_dim]
                # (n, k) squared distances to this subspace's centroids.
                diffs = (chunk[:, None, :] - tables[sub][None, :, :])
                dists = np.einsum("nkd,nkd->nk", diffs, diffs)
                codes[start:start + block.shape[0], sub] = (
                    np.argmin(dists, axis=1).astype(np.uint8))
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct approximate vectors from codes."""
        codes = np.atleast_2d(np.asarray(codes, dtype=np.uint8))
        if codes.shape[1] != self.num_subspaces:
            raise ConfigError(
                f"expected {self.num_subspaces} codes per row, got "
                f"{codes.shape[1]}")
        tables = self.centroids
        out = np.empty((codes.shape[0], self.dim), dtype=np.float32)
        for sub in range(self.num_subspaces):
            out[:, sub * self.subspace_dim:(sub + 1) * self.subspace_dim] \
                = tables[sub][codes[:, sub]]
        return out

    # ------------------------------------------------------------------
    def adc_tables(self, query: np.ndarray) -> np.ndarray:
        """Asymmetric-distance lookup tables for one query.

        ``tables[sub, code]`` is the squared distance between the
        query's ``sub`` chunk and that centroid; a candidate's distance
        is the sum of its codes' table entries.
        """
        query = np.asarray(query, dtype=np.float32).reshape(-1)
        if query.shape[0] != self.dim:
            raise ConfigError(
                f"expected dim {self.dim}, got {query.shape[0]}")
        tables = self.centroids
        out = np.empty((self.num_subspaces, self.num_centroids),
                       dtype=np.float32)
        for sub in range(self.num_subspaces):
            chunk = query[sub * self.subspace_dim:
                          (sub + 1) * self.subspace_dim]
            diffs = tables[sub] - chunk[None, :]
            out[sub] = np.einsum("kd,kd->k", diffs, diffs)
        return out

    def adc_distances(self, query: np.ndarray,
                      codes: np.ndarray) -> np.ndarray:
        """Approximate squared distances from ``query`` to coded rows."""
        codes = np.atleast_2d(np.asarray(codes, dtype=np.uint8))
        tables = self.adc_tables(query)
        columns = np.arange(self.num_subspaces)
        return tables[columns[None, :], codes].sum(axis=1)

    def quantization_error(self, vectors: np.ndarray) -> float:
        """Mean squared reconstruction error on ``vectors``."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        reconstructed = self.decode(self.encode(vectors))
        return float(((vectors - reconstructed) ** 2).sum(axis=1).mean())
