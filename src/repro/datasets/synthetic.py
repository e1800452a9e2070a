"""Synthetic stand-ins for SIFT1M and GIST1M.

The paper evaluates on SIFT1M (128-d SIFT descriptors, byte-valued) and
GIST1M (960-d GIST descriptors in [0, 1]).  Neither corpus ships with this
repo, so we generate clustered Gaussian data with matching dimensionality
and value range.  Real descriptor corpora are strongly clustered — which is
exactly the property d-HNSW's partitioning exploits — so the generators
draw cluster centres uniformly and scatter points around them.

Drop-in replacement with the real datasets is supported through
:mod:`repro.datasets.loaders` (``.fvecs``/``.ivecs``).
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from repro.datasets.ground_truth import exact_knn
from repro.datasets.loaders import read_fvecs, read_ivecs

__all__ = ["Dataset", "make_clustered", "sift_like", "gist_like",
           "sift1m_like"]


@dataclasses.dataclass(frozen=True)
class Dataset:
    """A benchmark corpus: base vectors, query vectors, exact top-k ids."""

    name: str
    vectors: np.ndarray
    queries: np.ndarray
    ground_truth: np.ndarray

    @property
    def num_vectors(self) -> int:
        """Corpus size."""
        return self.vectors.shape[0]

    @property
    def num_queries(self) -> int:
        """Query-set size."""
        return self.queries.shape[0]

    @property
    def dim(self) -> int:
        """Vector dimensionality."""
        return self.vectors.shape[1]

    @property
    def gt_k(self) -> int:
        """Number of exact neighbours stored per query."""
        return self.ground_truth.shape[1]

    def __post_init__(self) -> None:
        if self.vectors.ndim != 2 or self.queries.ndim != 2:
            raise ValueError("vectors and queries must be 2-D arrays")
        if self.vectors.shape[1] != self.queries.shape[1]:
            raise ValueError(
                f"corpus dim {self.vectors.shape[1]} != query dim "
                f"{self.queries.shape[1]}")
        if self.ground_truth.shape[0] != self.queries.shape[0]:
            raise ValueError(
                f"{self.queries.shape[0]} queries but ground truth for "
                f"{self.ground_truth.shape[0]}")


def make_clustered(num_vectors: int, dim: int, num_clusters: int,
                   cluster_std: float, rng: np.random.Generator,
                   low: float = 0.0, high: float = 1.0,
                   chunk_size: int = 65_536) -> np.ndarray:
    """Clustered Gaussian vectors clipped to ``[low, high]``.

    Cluster populations are drawn from a Dirichlet prior so partition sizes
    are realistically skewed rather than uniform.

    Generation streams in ``chunk_size``-row chunks straight into the
    float32 output array, so the float64 scratch never exceeds one chunk
    — at 1M x 128d the peak footprint is the 512 MB result plus ~64 MB of
    scratch instead of ~1.5 GB.  Chunking is bit-identical to a single
    full-size draw: the generator's normal stream is consumed value by
    value in C order regardless of the requested shape.
    """
    if num_vectors < 1 or num_clusters < 1:
        raise ValueError("num_vectors and num_clusters must be >= 1")
    if high <= low:
        raise ValueError(f"need high > low, got [{low}, {high}]")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    centers = rng.uniform(low, high, size=(num_clusters, dim))
    weights = rng.dirichlet(np.full(num_clusters, 2.0))
    assignments = rng.choice(num_clusters, size=num_vectors, p=weights)
    spread = cluster_std * (high - low)
    out = np.empty((num_vectors, dim), dtype=np.float32)
    for start in range(0, num_vectors, chunk_size):
        stop = min(start + chunk_size, num_vectors)
        block = centers[assignments[start:stop]] + rng.normal(
            0.0, spread, size=(stop - start, dim))
        np.clip(block, low, high, out=block)
        out[start:stop] = block
    return out


def _build(name: str, dim: int, num_vectors: int, num_queries: int,
           num_clusters: int, cluster_std: float, low: float, high: float,
           gt_k: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    corpus = make_clustered(num_vectors + num_queries, dim, num_clusters,
                            cluster_std, rng, low=low, high=high)
    # Queries are held-out points from the same distribution, as in the
    # SIFT/GIST benchmark methodology.
    vectors = corpus[:num_vectors]
    queries = corpus[num_vectors:]
    ground_truth = exact_knn(vectors, queries, gt_k)
    return Dataset(name=name, vectors=vectors, queries=queries,
                   ground_truth=ground_truth)


def sift_like(num_vectors: int = 20_000, num_queries: int = 200,
              num_clusters: int = 120, cluster_std: float = 0.08,
              gt_k: int = 10, seed: int = 0) -> Dataset:
    """A SIFT1M-shaped corpus: 128-d, byte-range values, clustered.

    Default 20k vectors keeps end-to-end benchmarks laptop-sized; scale
    ``num_vectors`` up freely.
    """
    return _build("sift-like", dim=128, num_vectors=num_vectors,
                  num_queries=num_queries, num_clusters=num_clusters,
                  cluster_std=cluster_std, low=0.0, high=255.0,
                  gt_k=gt_k, seed=seed)


def sift1m_like(num_vectors: int = 1_000_000, num_queries: int = 1_000,
                num_clusters: int = 2_000, cluster_std: float = 0.08,
                gt_k: int = 10, seed: int = 0,
                fvecs_dir: "str | os.PathLike[str] | None" = None
                ) -> Dataset:
    """The million-vector scale scenario: SIFT1M or its synthetic twin.

    With ``fvecs_dir`` pointing at an extracted TEXMEX SIFT1M directory
    (``sift_base.fvecs`` / ``sift_query.fvecs`` /
    ``sift_groundtruth.ivecs``), the real corpus is loaded through the
    memmap path — base vectors stay on disk and page in on demand.  The
    shipped ground truth is used when present (truncated to ``gt_k``);
    otherwise it is recomputed by the streaming brute-force oracle.

    Without ``fvecs_dir`` the corpus is synthetic: same dimensionality,
    value range and clustered structure as SIFT1M, generated and
    ground-truthed in fixed-size chunks so peak RSS stays bounded.
    ``num_vectors`` scales the scenario down for CI-sized runs.
    """
    if fvecs_dir is not None:
        base = os.path.join(fvecs_dir, "sift_base.fvecs")
        query = os.path.join(fvecs_dir, "sift_query.fvecs")
        gt_path = os.path.join(fvecs_dir, "sift_groundtruth.ivecs")
        vectors = read_fvecs(base, max_vectors=num_vectors, mmap_mode="r")
        queries = read_fvecs(query, max_vectors=num_queries)
        full_corpus = vectors.shape[0] >= 1_000_000
        if os.path.exists(gt_path) and full_corpus:
            truth = read_ivecs(gt_path, max_vectors=num_queries)
            ground_truth = truth[:, :gt_k].astype(np.int64)
        else:
            # A truncated corpus invalidates the shipped neighbours;
            # recompute against what was actually loaded.
            ground_truth = exact_knn(vectors, queries, gt_k)
        return Dataset(name="sift1m", vectors=vectors, queries=queries,
                       ground_truth=ground_truth)
    return _build("sift1m-like", dim=128, num_vectors=num_vectors,
                  num_queries=num_queries, num_clusters=num_clusters,
                  cluster_std=cluster_std, low=0.0, high=255.0,
                  gt_k=gt_k, seed=seed)


def gist_like(num_vectors: int = 10_000, num_queries: int = 100,
              num_clusters: int = 80, cluster_std: float = 0.06,
              gt_k: int = 10, seed: int = 0) -> Dataset:
    """A GIST1M-shaped corpus: 960-d, unit-range values, clustered."""
    return _build("gist-like", dim=960, num_vectors=num_vectors,
                  num_queries=num_queries, num_clusters=num_clusters,
                  cluster_std=cluster_std, low=0.0, high=1.0,
                  gt_k=gt_k, seed=seed)
