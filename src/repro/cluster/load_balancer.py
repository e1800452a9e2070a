"""Client-side load balancing across compute instances.

§3: "We assume the client load balancer distributes the workload across
multiple CPU instances."  The balancer shards a query batch across the
deployment's compute instances; instances run independently (each on its
own simulated clock), so the cluster-level wall time of a batch is the
*maximum* instance time while total work is the sum.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.cluster.deployment import Deployment
from repro.core.results import BatchResult, QueryResult
from repro.errors import ConfigError
from repro.metrics.latency import LatencyBreakdown
from repro.rdma.stats import RdmaStats

__all__ = ["ClusterBatchResult", "LoadBalancer"]


@dataclasses.dataclass
class ClusterBatchResult:
    """Aggregated outcome of a batch dispatched across instances."""

    results: list[QueryResult]
    per_instance: list[BatchResult]
    wall_time_us: float
    breakdown: LatencyBreakdown
    rdma: RdmaStats

    @property
    def batch_size(self) -> int:
        """Total queries answered."""
        return len(self.results)

    @property
    def sub_evals(self) -> int:
        """Sub-HNSW distance evaluations across all instances."""
        return sum(batch.sub_evals for batch in self.per_instance)

    @property
    def cache_misses(self) -> int:
        """Cluster-cache misses across all instances."""
        return sum(batch.cache_misses for batch in self.per_instance)

    @property
    def cache_evictions(self) -> int:
        """Cluster-cache evictions across all instances."""
        return sum(batch.cache_evictions for batch in self.per_instance)

    @property
    def overlap_saved_us(self) -> float:
        """Wire time hidden by pipelining, summed over instances."""
        return sum(batch.overlap_saved_us for batch in self.per_instance)

    @property
    def throughput_qps(self) -> float:
        """Cluster throughput: batch size over parallel wall time."""
        if self.wall_time_us == 0.0:
            return float("inf")
        return self.batch_size / (self.wall_time_us / 1e6)

    def ids_list(self) -> list[list[int]]:
        """Result ids as plain lists (recall-metric input)."""
        return [[int(x) for x in result.ids] for result in self.results]


class LoadBalancer:
    """Round-robin sharding of query batches over compute instances."""

    def __init__(self, deployment: Deployment) -> None:
        if not deployment.clients:
            raise ConfigError("deployment has no compute instances")
        self.deployment = deployment

    def shard(self, num_queries: int) -> list[np.ndarray]:
        """Round-robin assignment of query indices to instances."""
        instances = len(self.deployment.clients)
        return [np.arange(start, num_queries, instances)
                for start in range(instances)]

    def dispatch_batch(self, queries: np.ndarray, k: int,
                       ef_search: int | None = None) -> ClusterBatchResult:
        """Run one batch across all instances and merge the results."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        shards = self.shard(queries.shape[0])
        merged: list[QueryResult | None] = [None] * queries.shape[0]
        per_instance: list[BatchResult] = []
        breakdown = LatencyBreakdown()
        rdma = RdmaStats()
        wall_time = 0.0
        for client, indices in zip(self.deployment.clients, shards):
            if len(indices) == 0:
                continue
            batch = client.search_batch(queries[indices], k, ef_search)
            per_instance.append(batch)
            for local, query_index in enumerate(indices):
                merged[query_index] = batch.results[local]
            breakdown.add(batch.breakdown)
            rdma.merge(batch.rdma)
            wall_time = max(wall_time, batch.breakdown.total_us)
        results = [result for result in merged if result is not None]
        if len(results) != queries.shape[0]:
            raise RuntimeError("load balancer lost queries — shard bug")
        return ClusterBatchResult(results=results, per_instance=per_instance,
                                  wall_time_us=wall_time,
                                  breakdown=breakdown, rdma=rdma)
