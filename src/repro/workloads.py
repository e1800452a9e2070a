"""Workload generators for benchmarking and examples.

The paper's evaluation issues uniform batched queries; real vector-search
traffic is skewed and bursty, which is precisely what query-aware batched
loading and the cluster cache exploit.  This module provides reusable
generators:

* :func:`uniform_queries` — held-out queries drawn like the corpus;
* :func:`zipfian_queries` — popularity-skewed repeats of hot regions,
  modelling head-heavy RAG / recommendation traffic;
* :func:`bursty_topics` — batches focused on a few topics at a time;
* :class:`MixedWorkload` — an interleaved insert/search stream with a
  configurable write ratio.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Iterator

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "MixedWorkload",
    "Operation",
    "OpKind",
    "bursty_topics",
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


def bursty_topics(corpus: np.ndarray, batches: int, batch_size: int,
                  rng: np.random.Generator, topics_per_burst: int = 3,
                  noise_std: float = 0.5) -> Iterator[np.ndarray]:
    """Yield query batches, each concentrated on a few anchor vectors.

    Models diurnal / event-driven traffic: every burst picks
    ``topics_per_burst`` anchors and perturbs them, so consecutive
    queries within a batch hit the same partitions (maximal dedup win),
    while bursts drift across the corpus (cache churn).
    """
    if batches < 1 or batch_size < 1:
        raise ConfigError("batches and batch_size must be >= 1")
    if topics_per_burst < 1:
        raise ConfigError(
            f"topics_per_burst must be >= 1, got {topics_per_burst}")
    for _ in range(batches):
        anchors = corpus[rng.integers(0, corpus.shape[0],
                                      size=topics_per_burst)]
        picks = rng.integers(0, topics_per_burst, size=batch_size)
        batch = anchors[picks].astype(np.float32, copy=True)
        batch += rng.normal(0.0, noise_std,
                            size=batch.shape).astype(np.float32)
        yield batch


# ----------------------------------------------------------------------
class OpKind(enum.Enum):
    """Operation type in a mixed stream."""

    SEARCH = "search"
    INSERT = "insert"


@dataclasses.dataclass(frozen=True)
class Operation:
    """One step of a mixed workload."""

    kind: OpKind
    vector: np.ndarray
    global_id: int | None = None  # set for inserts


class MixedWorkload:
    """An insert/search stream with a fixed write ratio.

    Inserted vectors are drawn near existing corpus points (new items
    resemble old items); searches may target both old and freshly
    inserted vectors.

    Example
    -------
    >>> rng = np.random.default_rng(0)
    >>> corpus = rng.random((100, 8), dtype=np.float32)
    >>> stream = MixedWorkload(corpus, write_ratio=0.25, rng=rng,
    ...                        first_insert_id=1000)
    >>> ops = stream.take(20)
    >>> sum(op.kind is OpKind.INSERT for op in ops) in range(0, 21)
    True
    """

    def __init__(self, corpus: np.ndarray, write_ratio: float,
                 rng: np.random.Generator, first_insert_id: int,
                 insert_noise_std: float = 0.01) -> None:
        if not 0.0 <= write_ratio <= 1.0:
            raise ConfigError(
                f"write_ratio must be in [0, 1], got {write_ratio}")
        self.corpus = np.asarray(corpus, dtype=np.float32)
        self.write_ratio = write_ratio
        self.rng = rng
        self.insert_noise_std = insert_noise_std
        self._next_id = int(first_insert_id)
        self._inserted: list[np.ndarray] = []

    @property
    def inserted_count(self) -> int:
        """Inserts generated so far."""
        return len(self._inserted)

    def _base_vector(self) -> np.ndarray:
        """A random existing vector (corpus or previously inserted)."""
        total = self.corpus.shape[0] + len(self._inserted)
        pick = int(self.rng.integers(0, total))
        if pick < self.corpus.shape[0]:
            return self.corpus[pick]
        return self._inserted[pick - self.corpus.shape[0]]

    def next_op(self) -> Operation:
        """Generate the next operation."""
        base = self._base_vector()
        if self.rng.random() < self.write_ratio:
            vector = base + self.rng.normal(
                0.0, self.insert_noise_std,
                size=base.shape).astype(np.float32)
            op = Operation(OpKind.INSERT, vector, self._next_id)
            self._inserted.append(vector)
            self._next_id += 1
            return op
        return Operation(OpKind.SEARCH, base.copy())

    def take(self, count: int) -> list[Operation]:
        """Generate ``count`` operations."""
        if count < 0:
            raise ConfigError(f"count must be >= 0, got {count}")
        return [self.next_op() for _ in range(count)]
