"""Planner stage: meta-HNSW routing and wave scheduling.

First of the serving stages.  Routing runs the cached meta-HNSW over the
query batch (local compute, charged to the meta bucket); planning turns
the per-query cluster lists into the wave schedule the scheme calls for:
the deduplicated one of §3.3 (:func:`repro.core.query_planner.plan_batch`)
or the naive baseline's one pair per wave.
"""

from __future__ import annotations

import numpy as np

from repro.core.query_planner import BatchPlan, plan_batch, plan_naive
from repro.metrics.latency import LatencyBreakdown
from repro.serving.trace import TraceContext

__all__ = ["Planner"]


class Planner:
    """Routes queries to clusters and schedules fetch waves."""

    def __init__(self, host) -> None:
        self.host = host

    def route(self, queries: np.ndarray, breakdown: LatencyBreakdown,
              trace: TraceContext) -> list[list[int]]:
        """Meta-HNSW routing for the batch; charges the meta bucket."""
        host = self.host
        with trace.stage("route"):
            host.meta.reset_compute_counter()
            required = host.meta.route_batch(
                queries, host.config.nprobe, host.config.ef_meta)
            meta_evals = host.meta.reset_compute_counter()
            breakdown.meta_hnsw_us += host.node.charge_compute(
                meta_evals, host.meta.dim)
        return required

    def plan(self, required: list[list[int]],
             trace: TraceContext) -> BatchPlan:
        """Wave schedule for the routed cluster lists: deduplicated (§3.3)
        unless the scheme is the naive baseline."""
        host = self.host
        with trace.stage("plan"):
            if not host.policy.deduplicate_batch:
                return plan_naive(required)
            return plan_batch(required, host.cache,
                              host.cache.capacity_clusters)
