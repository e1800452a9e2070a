"""Workload generators for benchmarking and examples.

The paper's evaluation issues uniform batched queries; real vector-search
traffic is skewed, which is precisely what query-aware batched
loading and the cluster cache exploit.  This module provides reusable
generators:

* :func:`uniform_queries` — held-out queries drawn like the corpus;
* :func:`zipfian_queries` — popularity-skewed repeats of hot regions,
  modelling head-heavy RAG / recommendation traffic;
* :func:`zipfian_cluster_queries` — the same skew at cluster
  granularity, the unit the cluster cache keeps.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "uniform_queries",
    "zipfian_cluster_queries",
    "zipfian_queries",
]


def uniform_queries(corpus: np.ndarray, count: int,
                    rng: np.random.Generator,
                    noise_std: float = 0.0) -> np.ndarray:
    """Queries sampled uniformly from the corpus (optionally perturbed).

    With ``noise_std`` zero this produces exact-duplicate probes; a small
    positive value models "find things like X" lookups.
    """
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    rows = rng.integers(0, corpus.shape[0], size=count)
    queries = corpus[rows].astype(np.float32, copy=True)
    if noise_std > 0.0:
        queries += rng.normal(0.0, noise_std,
                              size=queries.shape).astype(np.float32)
    return queries


def zipfian_queries(corpus: np.ndarray, count: int,
                    rng: np.random.Generator, skew: float = 1.1,
                    noise_std: float = 0.0) -> np.ndarray:
    """Popularity-skewed queries: a few corpus regions dominate.

    Row popularity follows a Zipf distribution over a random permutation
    of the corpus, so "hot" vectors are scattered across partitions the
    way hot documents are scattered across topics.
    """
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    if skew <= 1.0:
        raise ConfigError(f"zipf skew must be > 1.0, got {skew}")
    permutation = rng.permutation(corpus.shape[0])
    ranks = rng.zipf(skew, size=count)
    # Fold the unbounded tail back over the corpus instead of clamping,
    # so no single row absorbs the entire tail mass.
    rows = permutation[(ranks - 1) % corpus.shape[0]]
    queries = corpus[rows].astype(np.float32, copy=True)
    if noise_std > 0.0:
        queries += rng.normal(0.0, noise_std,
                              size=queries.shape).astype(np.float32)
    return queries


def zipfian_cluster_queries(corpus: np.ndarray, cluster_of: np.ndarray,
                            count: int, rng: np.random.Generator,
                            skew: float = 1.2,
                            noise_std: float = 0.0) -> np.ndarray:
    """Queries whose *cluster* popularity is Zipfian.

    Unlike :func:`zipfian_queries` (hot individual rows), this skews at
    the partition granularity the cluster cache cares about: a handful of
    clusters absorb most of the traffic while the tail stays cold.  The
    Zipf ranks are mapped through a random permutation of cluster ids,
    so which clusters run hot is seed-dependent rather than id-ordered;
    within the chosen cluster the query row is uniform.

    ``cluster_of`` maps each corpus row to its cluster id (the builder's
    assignment array).  Used by ``bench_dram_budget`` and the front-door
    skew tests so both exercise the same hot/cold access pattern.
    """
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    if skew <= 1.0:
        raise ConfigError(f"zipf skew must be > 1.0, got {skew}")
    cluster_of = np.asarray(cluster_of)
    if cluster_of.shape[0] != corpus.shape[0]:
        raise ConfigError(
            f"cluster_of has {cluster_of.shape[0]} entries for a corpus "
            f"of {corpus.shape[0]} rows")
    cluster_ids = np.unique(cluster_of)
    permutation = rng.permutation(cluster_ids.shape[0])
    ranks = rng.zipf(skew, size=count)
    # Same tail-fold as zipfian_queries: wrap instead of clamping so the
    # tail mass spreads over every cluster.
    chosen = cluster_ids[permutation[(ranks - 1) % cluster_ids.shape[0]]]
    members = {int(cid): np.flatnonzero(cluster_of == cid)
               for cid in cluster_ids}
    rows = np.empty(count, dtype=np.int64)
    for i, cid in enumerate(chosen):
        pool = members[int(cid)]
        rows[i] = pool[rng.integers(0, pool.shape[0])]
    queries = corpus[rows].astype(np.float32, copy=True)
    if noise_std > 0.0:
        queries += rng.normal(0.0, noise_std,
                              size=queries.shape).astype(np.float32)
    return queries
