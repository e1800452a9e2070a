"""Lloyd's k-means with k-means++ seeding, built on counted kernels.

The quantization-based indexes the paper cites (reference [14], FAISS)
partition space with k-means centroids; this from-scratch implementation
backs the IVF-Flat baseline in :mod:`repro.baselines.ivf` and is usable
on its own.  All distance work goes through
:class:`~repro.hnsw.distance.DistanceKernel`, so k-means compute is
accountable in simulated time like everything else.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigError
from repro.hnsw.distance import DistanceKernel

__all__ = ["KMeansResult", "kmeans", "kmeans_plus_plus_init"]


@dataclasses.dataclass(frozen=True)
class KMeansResult:
    """Converged clustering: centroids, assignments, quality, effort."""

    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    iterations: int
    converged: bool


def kmeans_plus_plus_init(vectors: np.ndarray, k: int,
                          rng: np.random.Generator,
                          kernel: DistanceKernel) -> np.ndarray:
    """k-means++ seeding: spread initial centroids proportional to
    squared distance from the chosen set."""
    count = vectors.shape[0]
    first = int(rng.integers(0, count))
    centroids = [vectors[first]]
    closest_sq = kernel.many(vectors[first], vectors)
    for _ in range(1, k):
        total = float(closest_sq.sum())
        if total <= 0.0:
            # All remaining points coincide with a centroid; pick any.
            pick = int(rng.integers(0, count))
        else:
            pick = int(rng.choice(count, p=closest_sq / total))
        centroids.append(vectors[pick])
        closest_sq = np.minimum(closest_sq,
                                kernel.many(vectors[pick], vectors))
    return np.stack(centroids)


def kmeans(vectors: np.ndarray, k: int, rng: np.random.Generator,
           max_iterations: int = 25,
           tolerance: float = 1e-4) -> KMeansResult:
    """Cluster ``vectors`` into ``k`` groups with Lloyd's algorithm.

    Empty clusters are reseeded from the point farthest from its
    centroid, so the result always has ``k`` non-degenerate centroids
    (assuming at least ``k`` distinct points).
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if vectors.shape[0] < k:
        raise ConfigError(
            f"cannot form {k} clusters from {vectors.shape[0]} points")
    if max_iterations < 1:
        raise ConfigError(
            f"max_iterations must be >= 1, got {max_iterations}")

    kernel = DistanceKernel(vectors.shape[1])
    centroids = kmeans_plus_plus_init(vectors, k, rng, kernel)
    assignments = np.zeros(vectors.shape[0], dtype=np.int64)
    previous_inertia = np.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        dists = kernel.cross(vectors, centroids)
        assignments = np.argmin(dists, axis=1)
        inertia = float(np.take_along_axis(
            dists, assignments[:, None], axis=1).sum())

        fresh = np.empty_like(centroids)
        for cluster in range(k):
            members = vectors[assignments == cluster]
            if len(members) == 0:
                # Reseed from the globally worst-fit point.
                worst = int(np.argmax(np.take_along_axis(
                    dists, assignments[:, None], axis=1)))
                fresh[cluster] = vectors[worst]
            else:
                fresh[cluster] = members.mean(axis=0)
        centroids = fresh

        if (np.isfinite(previous_inertia)
                and previous_inertia - inertia
                <= tolerance * max(previous_inertia, 1e-12)):
            converged = True
            break
        previous_inertia = inertia

    dists = kernel.cross(vectors, centroids)
    assignments = np.argmin(dists, axis=1)
    inertia = float(np.take_along_axis(dists, assignments[:, None],
                                       axis=1).sum())
    return KMeansResult(centroids=centroids, assignments=assignments,
                        inertia=inertia, iterations=iterations,
                        converged=converged)
