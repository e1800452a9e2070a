"""Sharding a corpus across multiple memory nodes (library extension).

The paper's testbed has a single memory instance; its conclusion invites
follow-on designs.  The classic way to scale past one memory node —
used by Pyramid, the system meta-HNSW is inspired by — is *data
sharding*: split the corpus round-robin into independent shards, give
each shard its own memory node (own NIC, own bandwidth) and its own
d-HNSW deployment, fan each query out to every shard, and merge the
per-shard top-k.

Round-robin row assignment keeps every shard an unbiased sample of the
corpus, so per-shard recall matches whole-corpus recall and the merged
top-k is exact with respect to the shards' answers.  Each shard is built
with corpus-wide global labels, so merging needs no id remapping.
Dynamic ids are routed to shard ``gid % num_shards``.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.deployment import Deployment
from repro.core.baselines import Scheme
from repro.core.config import DHnswConfig
from repro.core.results import BatchResult, QueryResult
from repro.errors import ConfigError
from repro.metrics.latency import LatencyBreakdown
from repro.rdma.network import CostModel
from repro.rdma.stats import RdmaStats

__all__ = ["ShardedDeployment"]


class ShardedDeployment:
    """N independent d-HNSW deployments presenting one merged index."""

    def __init__(self, vectors: np.ndarray,
                 config: DHnswConfig | None = None,
                 num_shards: int = 2,
                 cost_model: CostModel | None = None,
                 scheme: Scheme = Scheme.DHNSW,
                 build_workers: int | None = None) -> None:
        if num_shards < 1:
            raise ConfigError(f"num_shards must be >= 1, got {num_shards}")
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if vectors.shape[0] < num_shards:
            raise ConfigError(
                f"corpus of {vectors.shape[0]} vectors cannot fill "
                f"{num_shards} shards")
        self.num_shards = num_shards
        self.config = config if config is not None else DHnswConfig()
        if build_workers is not None:
            # Shards build one after another, so the override is the
            # total process count in flight; per-shard layouts stay
            # byte-identical at any worker count (see DHnswConfig).
            self.config = self.config.replace(build_workers=build_workers)
        self.scheme = scheme
        all_ids = np.arange(vectors.shape[0], dtype=np.int64)
        self.deployments = [
            Deployment(vectors[shard::num_shards], self.config,
                       cost_model=cost_model, scheme=scheme,
                       simulate_link_contention=False,
                       labels=all_ids[shard::num_shards])
            for shard in range(num_shards)
        ]

    # ------------------------------------------------------------------
    def shard_of(self, global_id: int) -> int:
        """The shard owning a (base or dynamic) global id."""
        return global_id % self.num_shards

    @property
    def total_registered_bytes(self) -> int:
        """Remote memory registered across all shards."""
        return sum(deployment.memory_node.registered_bytes
                   for deployment in self.deployments)

    # ------------------------------------------------------------------
    def search_batch(self, queries: np.ndarray, k: int,
                     ef_search: int | None = None) -> BatchResult:
        """Fan a batch out to every shard and merge per-query top-k.

        Shards are modelled as running in parallel on independent memory
        nodes (the simulation walks them in turn), so the merged latency
        per bucket is the *maximum* across shards (the fan-out completes
        when the slowest shard answers) while traffic counters aggregate.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        shard_batches = [deployment.client(0).search_batch(queries, k,
                                                           ef_search)
                         for deployment in self.deployments]

        results = []
        for row in range(queries.shape[0]):
            merged: list[tuple[float, int]] = []
            for batch in shard_batches:
                result = batch.results[row]
                merged.extend(zip(result.distances.tolist(),
                                  result.ids.tolist()))
            merged.sort()
            top = merged[:k]
            results.append(QueryResult(
                ids=np.array([gid for _, gid in top], dtype=np.int64),
                distances=np.array([dist for dist, _ in top],
                                   dtype=np.float32)))

        breakdown = LatencyBreakdown(
            network_us=max(batch.breakdown.network_us
                           for batch in shard_batches),
            sub_hnsw_us=max(batch.breakdown.sub_hnsw_us
                            for batch in shard_batches),
            meta_hnsw_us=max(batch.breakdown.meta_hnsw_us
                             for batch in shard_batches))
        rdma = RdmaStats()
        for batch in shard_batches:
            rdma.merge(batch.rdma)
        return BatchResult(
            results=results, breakdown=breakdown, rdma=rdma,
            clusters_fetched=sum(batch.clusters_fetched
                                 for batch in shard_batches),
            cache_hits=sum(batch.cache_hits for batch in shard_batches),
            duplicate_requests_pruned=sum(
                batch.duplicate_requests_pruned
                for batch in shard_batches),
            waves=max(batch.waves for batch in shard_batches),
            overlap_saved_us=sum(batch.overlap_saved_us
                                 for batch in shard_batches),
            sub_evals=sum(batch.sub_evals for batch in shard_batches),
            cache_misses=sum(batch.cache_misses
                             for batch in shard_batches),
            cache_evictions=sum(batch.cache_evictions
                                for batch in shard_batches),
            cache_streamed=sum(batch.cache_streamed
                               for batch in shard_batches))

    def search(self, query: np.ndarray, k: int,
               ef_search: int | None = None) -> QueryResult:
        """Single-query convenience wrapper."""
        return self.search_batch(np.atleast_2d(query), k,
                                 ef_search).results[0]

    # ------------------------------------------------------------------
    def insert(self, vector: np.ndarray, global_id: int):
        """Insert into the shard that owns ``global_id``."""
        shard = self.shard_of(global_id)
        return self.deployments[shard].client(0).insert(vector, global_id)

    def delete(self, vector: np.ndarray, global_id: int):
        """Delete from the shard that owns ``global_id``."""
        shard = self.shard_of(global_id)
        return self.deployments[shard].client(0).delete(vector, global_id)
