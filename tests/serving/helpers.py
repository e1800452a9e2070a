"""Test-side drivers of the serving stages, outside a batch: a fetch of
clusters landed at once, and a plan run start to finish; and the small
clustered world several serving tests share."""

from __future__ import annotations

import numpy as np

from repro.core import DHnswConfig
from repro.core.cache import CachedCluster
from repro.core.merge import TopKMerger
from repro.core.query_planner import BatchPlan
from repro.datasets import exact_knn
from repro.datasets.synthetic import make_clustered
from repro.serving.executor import PlanExecution
from repro.serving.trace import TraceContext


def make_world(seed=21):
    """A 2,400 x 24 corpus in 12 clusters, 48 queries and their top 10."""
    rng = np.random.default_rng(seed)
    corpus = make_clustered(2400, 24, num_clusters=12, cluster_std=0.05,
                            rng=rng)
    queries = make_clustered(48, 24, num_clusters=12, cluster_std=0.05,
                             rng=rng)
    return corpus, queries, exact_knn(corpus, queries, 10)


def base_config(**overrides):
    """12 clusters, 3 of them cached, small overflow areas."""
    return DHnswConfig(num_representatives=12, nprobe=4, ef_meta=24,
                       cache_fraction=0.25, overflow_capacity_records=8,
                       seed=13, **overrides)


def fetch(client, cluster_ids, doorbell: bool = True
          ) -> dict[int, CachedCluster]:
    """One wave's fetch of ``cluster_ids`` through the served verbs: the
    READ is posted and polled at once (nothing overlaps it), then its
    extents are decoded, topped up and offered to the cache."""
    fetcher = client.engine.fetcher
    token, extents = fetcher.issue_async(list(cluster_ids), doorbell)
    return fetcher.admit(extents, fetcher.poll(token), PlanExecution())


def make_plan(client, required: list[list[int]]) -> BatchPlan:
    """The plan the client's planner makes of the routes ``required``, as
    the engine makes it (a client running ``reference_loop`` reads each
    row's probe ranks off the routes it sees here)."""
    return client.engine.planner.plan(required, TraceContext(0))


def run_plan(client, plan: BatchPlan, queries, merger: TopKMerger, k: int,
             ef: int) -> PlanExecution:
    """Run ``plan`` under the client's ready-list loop, every row routed
    before the first READ is posted."""
    loop = client.engine.executor.ready_list(plan, queries, merger, k, ef)
    loop.start(len(queries))
    return loop.run()
