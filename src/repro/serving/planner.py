"""Planner stage: meta-HNSW routing and wave scheduling.

First of the serving stages.  Routing walks the cached meta-HNSW for the
query batch (:meth:`Planner.walk`, local compute) and charges the walk to
the meta bucket (:meth:`Planner.route`) in two parts, so the engine can
put the first READ on the wire before the last row's routing is paid for.
The walk and its charge can also come apart: the front door walks
arrivals in batches ahead of time and charges each request's walk on the
clock at its admission, then hands the routes to ``search_batch``
(:meth:`~repro.serving.engine.ServingEngine.routed`).  Planning turns the
per-query cluster lists into the wave schedule the scheme calls for: the
deduplicated one of §3.3 (:func:`repro.core.query_planner.plan_batch`) or
the naive baseline's one pair per wave.  Under a cache byte cap, a
deduplicated wave also holds at most its share of the cap in fetch bytes:
the cap over how many waves the loop keeps open, so what the open waves
stream never passes the cap.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from repro.core.query_planner import BatchPlan, plan_batch, plan_naive
from repro.metrics.latency import LatencyBreakdown
from repro.serving.executor import OPEN_WAVES
from repro.serving.fetcher import Fetcher
from repro.serving.trace import TraceContext, span

__all__ = ["FirstWave", "Planner", "Walk"]

#: Shown a batch's routes, returns ``(rows, post)``: the leading rows that
#: fix its first READ and the call that posts it.
FirstWave = Callable[[list[list[int]]], tuple[int, Callable[[], None]]]


class Walk(NamedTuple):
    """Meta-HNSW routing of a batch of rows, computed but not charged."""

    #: Per row: the clusters it probes, closest first.
    clusters: list[list[int]]
    #: Per row: the distance evaluations its walk took.
    evaluations: list[int]


class Planner:
    """Routes queries to clusters and schedules fetch waves."""

    def __init__(self, ctx, fetcher: Fetcher) -> None:
        self.ctx = ctx
        self.fetcher = fetcher

    def walk(self, queries: np.ndarray) -> Walk:
        """Walk the meta-HNSW for every row of ``queries`` in one
        ``route_batch`` call; charges nothing.  A row's routes and
        evaluation count do not depend on the rows walked with it."""
        meta, config = self.ctx.meta, self.ctx.config
        meta.reset_compute_counter()
        evaluations: list[int] = []
        clusters = meta.route_batch(queries, config.nprobe, config.ef_meta,
                                    evaluations)
        meta.reset_compute_counter()
        return Walk(clusters, evaluations)

    def route(self, queries: np.ndarray, breakdown: LatencyBreakdown,
              trace: TraceContext | None = None,
              first_wave: FirstWave | None = None,
              walk: Walk | None = None) -> list[list[int]]:
        """Meta-HNSW routing for the rows; charges the meta bucket.

        ``walk`` is the rows' walk when the caller ran it ahead
        (:meth:`walk`); it is charged, not computed again.
        ``first_wave`` is shown the routes and returns ``(rows, post)``:
        how many leading rows fix the batch's first READ, and the call
        that puts it on the wire.  Routing is then billed in two parts
        around ``post``, so the READ is in flight while the remaining
        rows are paid for.  Without it (routing ahead of any batch, at a
        request's admission) the rows are billed in one part.
        """
        ctx = self.ctx
        with span(trace, "route"):
            if walk is None:
                walk = self.walk(queries)
            clusters, evaluations = walk
            rows, post = (first_wave(clusters) if first_wave is not None
                          else (len(clusters), None))
            breakdown.meta_hnsw_us += ctx.node.charge_compute(
                sum(evaluations[:rows]), ctx.meta.dim)
            if post is not None:
                post()
                breakdown.meta_hnsw_us += ctx.node.charge_compute(
                    sum(evaluations[rows:]), ctx.meta.dim)
        return clusters

    def plan(self, required: list[list[int]],
             trace: TraceContext) -> BatchPlan:
        """Wave schedule for the routed cluster lists: deduplicated (§3.3)
        unless the scheme is the naive baseline."""
        cache = self.ctx.cache
        cap = cache.capacity_bytes
        with trace.stage("plan"):
            if not self.ctx.policy.query_aware_loading:
                return plan_naive(required)
            return plan_batch(
                required, cache, cache.capacity_clusters,
                wave_bytes=(None if cap is None
                            else cap // OPEN_WAVES[self.ctx.lookahead]),
                fetch_bytes=self.fetcher.fetch_bytes)
