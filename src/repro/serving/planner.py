"""Planner stage: meta-HNSW routing and wave scheduling.

First of the serving stages.  Routing runs the cached meta-HNSW over the
query batch (local compute, charged to the meta bucket row by row, so the
engine can put the first READ on the wire before the last row's routing
is paid for); planning turns the per-query cluster lists into the wave
schedule the scheme calls for: the deduplicated one of §3.3
(:func:`repro.core.query_planner.plan_batch`) or the naive baseline's one
pair per wave.  Under a cache byte cap, a deduplicated wave also holds at
most its share of the cap in fetch bytes: the cap over how many waves the
loop keeps open, so what the open waves stream never passes the cap.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.query_planner import BatchPlan, plan_batch, plan_naive
from repro.metrics.latency import LatencyBreakdown
from repro.serving.executor import OPEN_WAVES, lookahead
from repro.serving.fetcher import Fetcher
from repro.serving.trace import TraceContext

__all__ = ["FirstWave", "Planner"]

#: Shown a batch's routes, returns ``(rows, post)``: the leading rows that
#: fix its first READ and the call that posts it.
FirstWave = Callable[[list[list[int]]], tuple[int, Callable[[], None]]]


class Planner:
    """Routes queries to clusters and schedules fetch waves."""

    def __init__(self, host, fetcher: Fetcher) -> None:
        self.host = host
        self.fetcher = fetcher

    def route(self, queries: np.ndarray, breakdown: LatencyBreakdown,
              trace: TraceContext, first_wave: FirstWave) -> list[list[int]]:
        """Meta-HNSW routing for the batch; charges the meta bucket.

        ``first_wave`` is shown the routes and returns ``(rows, post)``:
        how many leading rows fix the batch's first READ, and the call
        that puts it on the wire.  Routing is billed in two parts around
        ``post``, so the READ is in flight while the remaining rows are
        paid for.
        """
        host = self.host
        with trace.stage("route"):
            host.meta.reset_compute_counter()
            evaluations: list[int] = []
            required = host.meta.route_batch(
                queries, host.config.nprobe, host.config.ef_meta,
                evaluations)
            host.meta.reset_compute_counter()
            rows, post = first_wave(required)
            breakdown.meta_hnsw_us += host.node.charge_compute(
                sum(evaluations[:rows]), host.meta.dim)
            post()
            breakdown.meta_hnsw_us += host.node.charge_compute(
                sum(evaluations[rows:]), host.meta.dim)
        return required

    def plan(self, required: list[list[int]],
             trace: TraceContext) -> BatchPlan:
        """Wave schedule for the routed cluster lists: deduplicated (§3.3)
        unless the scheme is the naive baseline."""
        host = self.host
        cache = host.cache
        cap = cache.capacity_bytes
        with trace.stage("plan"):
            if not host.policy.query_aware_loading:
                return plan_naive(required)
            return plan_batch(
                required, cache, cache.capacity_clusters,
                wave_bytes=(None if cap is None
                            else cap // OPEN_WAVES[lookahead(host)]),
                fetch_bytes=self.fetcher.fetch_bytes)
