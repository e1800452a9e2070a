"""Traffic skew and the cluster cache (workload-generator bench).

The paper evaluates uniform query batches; production traffic is skewed,
and skew is what the cache's frequency x bytes retention is for: a
partition most batches probe stays resident while one-shot fetches stream
past it.  This bench drives the same deployment with uniform and zipfian
streams and compares steady-state traffic and cache hit rate.

Skew cuts network time per query, but the hit rate barely moves:
uniform 9.09 %, zipfian rows 8.06 %, zipfian clusters 10.59 % (9.41 %
under plain LRU).  Four batches are too few for access frequencies to
tell the head of the distribution from its tail, so only the traffic
claim is asserted.
"""

from __future__ import annotations

import numpy as np

from repro.core import Scheme
from repro.core.partitions import assign_partitions
from repro.frontdoor import (FrontDoor, FrontDoorConfig, TenantPolicy,
                             make_requests, poisson_arrivals)
from repro.workloads import (uniform_queries, zipfian_cluster_queries,
                             zipfian_queries)

from .conftest import emit_table

BATCHES = 4
#: Small batches: with a cache-sized working set per batch, skew decides
#: how much of the next batch the retained cache can serve.
BATCH_SIZE = 50
SKEW = 2.0


def run_stream(world, make_batch) -> tuple[float, float]:
    """Returns (steady-state network us/query, cache hit rate)."""
    client = world.client(Scheme.DHNSW)
    rng = np.random.default_rng(17)
    network_us = 0.0
    queries_served = 0
    for index in range(BATCHES):
        batch = client.search_batch(make_batch(rng), 10, ef_search=16)
        if index > 0:  # skip the cold batch
            network_us += batch.breakdown.network_us
            queries_served += batch.batch_size
    return network_us / queries_served, client.cache.hit_rate()


def test_workload_skew(sift_world, benchmark):
    world = sift_world
    corpus = world.dataset.vectors

    assignments = assign_partitions(corpus, world.deployment.meta).assignments

    uniform_net, uniform_hits = run_stream(
        world, lambda rng: uniform_queries(corpus, BATCH_SIZE, rng,
                                           noise_std=1.0))
    zipf_net, zipf_hits = run_stream(
        world, lambda rng: zipfian_queries(corpus, BATCH_SIZE, rng,
                                           skew=SKEW, noise_std=1.0))
    # Cluster-popularity skew — the same generator the tiered-memory
    # bench sweeps — concentrates traffic at exactly the granularity the
    # cache (and the hot tier) manages: whole partitions.
    cluster_net, cluster_hits = run_stream(
        world, lambda rng: zipfian_cluster_queries(corpus, assignments,
                                                   BATCH_SIZE, rng,
                                                   skew=SKEW,
                                                   noise_std=1.0))

    header = (f"{'workload':<14} {'network_us_per_query':>21} "
              f"{'cache_hit_rate':>15}")
    rows = [
        f"{'uniform':<14} {uniform_net:>21.3f} {uniform_hits:>15.2%}",
        f"{'zipfian':<14} {zipf_net:>21.3f} {zipf_hits:>15.2%}",
        f"{'zipf-cluster':<14} {cluster_net:>21.3f} {cluster_hits:>15.2%}",
    ]
    emit_table("workload_skew", header, rows)

    # Skewed traffic concentrates on few partitions, so steady-state
    # network traffic drops.  (The raw hit-*rate* is noisier: lookups
    # per batch also shrink under skew because fewer distinct clusters
    # are requested at all, so only the traffic claim is asserted.)
    assert zipf_net < uniform_net
    assert cluster_net < uniform_net

    client = world.client(Scheme.DHNSW)
    rng = np.random.default_rng(18)
    benchmark.pedantic(
        lambda: client.search_batch(
            zipfian_queries(corpus, BATCH_SIZE, rng, skew=SKEW), 10,
            ef_search=16),
        rounds=1, iterations=1)
    benchmark.extra_info["uniform_net_us"] = uniform_net
    benchmark.extra_info["zipf_net_us"] = zipf_net


#: Hot tenant floods 90 % of the traffic; the cold tenant sends 10 %
#: but carries a 4x DRR weight (the paid-tier shape).
TENANT_SKEW = (9.0, 1.0)
COLD_WEIGHT = 4.0
SKEW_REQUESTS = 300
#: Far beyond the door's drain rate, so both tenants stay backlogged
#: and fairness — not the arrival process — decides who waits.
SKEW_RATE_QPS = 50_000.0


def test_tenant_skew_fairness(sift_world):
    """A flooding tenant must not starve a light, weighted one.

    Drives a saturating 90/10 hot/cold request mix through the front
    door with DRR weights favouring the cold tenant, and asserts the
    fairness bounds: every request is eventually served, and the cold
    tenant's queue delays stay well below the hot tenant's (the deficit
    round-robin guarantee, visible end-to-end through the event loop).
    """
    world = sift_world
    door = FrontDoor(
        world.client(Scheme.DHNSW),
        FrontDoorConfig(max_wait_us=2000.0, max_batch=32, slo_us=1e9),
        tenants={"hot": TenantPolicy(weight=1.0),
                 "cold": TenantPolicy(weight=COLD_WEIGHT)})
    rng = np.random.default_rng(23)
    # The flood hammers popular partitions — cluster-popularity skew,
    # same generator the tiered-memory bench sweeps.
    corpus = world.dataset.vectors
    assignments = assign_partitions(corpus,
                                    world.deployment.meta).assignments
    skewed_queries = zipfian_cluster_queries(
        corpus, assignments, SKEW_REQUESTS, rng, skew=1.5, noise_std=1.0)
    requests = make_requests(
        poisson_arrivals(SKEW_RATE_QPS, SKEW_REQUESTS, rng),
        skewed_queries, k=10, slo_us=1e9, rng=rng,
        tenants=("hot", "cold"), tenant_weights=TENANT_SKEW,
        ef_search=16)
    report = door.run(requests)
    by_tenant = {t.tenant: t for t in report.tenants()}
    hot, cold = by_tenant["hot"], by_tenant["cold"]

    header = (f"{'tenant':<8} {'offered':>8} {'served':>7} "
              f"{'q_p50_us':>10} {'q_p99_us':>10} {'share':>7}")
    rows = [
        f"{t.tenant:<8} {t.offered:>8} {t.served:>7} "
        f"{t.p50_queue_delay_us:>10.1f} {t.p99_queue_delay_us:>10.1f} "
        f"{t.dispatch_share:>7.2%}"
        for t in report.tenants()
    ]
    emit_table("tenant_skew_fairness", header, rows)

    # Nobody starves: with no rate limit and huge SLOs the flood is
    # absorbed, not dropped.
    assert report.served == report.offered
    assert hot.served == hot.offered and cold.served == cold.offered
    # The fairness bound: the weighted minority tenant rides near the
    # front of every wave, so its waits are a fraction of the hot
    # tenant's at both the median and the tail.
    assert cold.p50_queue_delay_us < hot.p50_queue_delay_us / 2
    assert cold.p99_queue_delay_us < hot.p99_queue_delay_us
    # And fairness is work-conserving, not quota-capping: the hot
    # tenant still receives the slots the cold tenant has no use for.
    assert hot.dispatch_share > 0.8
