"""Test-side drivers of the serving stages, outside a batch: a fetch of
clusters landed at once, and a plan run start to finish."""

from __future__ import annotations

from repro.core.cache import CachedCluster
from repro.core.merge import TopKMerger
from repro.core.query_planner import BatchPlan
from repro.serving.executor import PlanExecution


def fetch(client, cluster_ids, doorbell: bool = True
          ) -> dict[int, CachedCluster]:
    """One wave's fetch of ``cluster_ids`` through the served verbs: the
    READ is posted and polled at once (nothing overlaps it), then its
    extents are decoded, topped up and offered to the cache."""
    fetcher = client.engine.fetcher
    token, extents = fetcher.issue_async(list(cluster_ids), doorbell)
    return fetcher.admit(extents, fetcher.poll(token), PlanExecution())


def run_plan(client, plan: BatchPlan, queries, merger: TopKMerger, k: int,
             ef: int) -> PlanExecution:
    """Run ``plan`` under the client's ready-list loop, every row routed
    before the first READ is posted."""
    loop = client.engine.executor.ready_list(plan, queries, merger, k, ef)
    loop.start(len(queries))
    return loop.run()
