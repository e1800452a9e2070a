"""Frequency x bytes cache admission, end to end through the client.

The serving engine records every routed cluster's access once per batch,
before the tier split, weighted by the queries that probe it; the fetcher
offers each fetched cluster to the cache, which admits it or streams it
through its wave; and the cache, the one DRAM ledger, holds exactly its
residents between batches plus, during a wave, what that wave streams.
"""

from __future__ import annotations

import collections

import pytest

from repro.cluster import Deployment
from repro.core import DHnswClient
from repro.core.cache import CachedCluster
from repro.hnsw import HnswIndex, HnswParams
from tests.serving.test_tiered_equivalence import base_config, make_world

TIERS = pytest.mark.parametrize("cold_tier", ["off", "pq"])
BATCH = 8


@pytest.fixture(scope="module")
def world():
    corpus, queries, _ = make_world()
    deployments = {tier: Deployment(corpus, base_config(cold_tier=tier),
                                    simulate_link_contention=False)
                   for tier in ("off", "pq")}
    return deployments, queries


def fresh_client(world, cold_tier: str) -> DHnswClient:
    deployments, _ = world
    deployment = deployments[cold_tier]
    return DHnswClient(deployment.layout, deployment.meta, deployment.config,
                       cost_model=deployment.effective_cost_model,
                       name=f"admission-{cold_tier}")


def batches(world):
    _, queries = world
    return [queries[start:start + BATCH]
            for start in range(0, len(queries), BATCH)]


@TIERS
def test_each_routed_cluster_is_recorded_once_per_batch(world, cold_tier):
    """One recorder: per batch, every routed cluster gets exactly one
    bump, weighted by the number of queries that probe it — with the tier
    on, too (its split only reads the scores)."""
    client = fresh_client(world, cold_tier)
    bumps: list[tuple[int, float]] = []
    routed: list[list[list[int]]] = []
    record, route = client.cache.record_access, client.engine.planner.route

    def recording(cluster_id, now_us, weight=1.0):
        bumps.append((cluster_id, weight))
        return record(cluster_id, now_us, weight)

    def routing(*args):
        routed.append(route(*args))
        return routed[-1]

    client.cache.record_access = recording
    client.engine.planner.route = routing
    served_cold = 0
    with client:
        for queries in batches(world):
            bumps.clear()
            served_cold += client.search_batch(queries, 10).cold_clusters_served
            probes = collections.Counter(
                cid for row in routed[-1] for cid in set(row))
            assert sorted(bumps) == sorted(probes.items())
    assert (served_cold > 0) == (cold_tier == "pq")


@TIERS
def test_dram_holds_the_cache_and_what_the_wave_streams(world, cold_tier):
    """Between batches the client holds its fixed bytes plus
    ``cache.cached_bytes``; inside a wave, the bytes of every entry it
    streams as well (``cache.held_bytes``), until the wave's pins drop.  With the tier on, the
    split serves cold what the cache would not admit, so what would have
    streamed is never fetched."""
    client = fresh_client(world, cold_tier)
    fixed = client.dram_used_bytes  # meta-HNSW (+ codebook)
    streamed = []
    run_wave_compute = client.engine.executor.run_wave_compute

    def checked(tasks, *args, **kwargs):
        passing = [entry for _, entry, _ in tasks if entry.streamed]
        assert client.cache.held_bytes == (
            client.cache.cached_bytes
            + sum(entry.nbytes for entry in passing))
        assert client.dram_used_bytes == fixed + client.cache.held_bytes
        streamed.extend(passing)
        return run_wave_compute(tasks, *args, **kwargs)

    client.engine.executor.run_wave_compute = checked
    served_cold = 0
    with client:
        for queries in batches(world) * 2:
            result = client.search_batch(queries, 10)
            assert (client.dram_used_bytes
                    == fixed + client.cache.cached_bytes)
            assert result.cache_streamed <= result.clusters_fetched
            served_cold += result.cold_clusters_served
    if cold_tier == "off":
        assert streamed, "no wave streamed a cluster; shrink the cache"
    else:
        assert served_cold, "no cluster was served cold; shrink the cache"
        assert not streamed
    assert client.cache.streamed == len(streamed)
    assert not any(entry.streamed for entry in streamed)


def test_a_wave_never_evicts_what_it_loaded(world):
    """Two fetched clusters of one wave, both worth more than the weakest
    resident but less than the rest: the first evicts the weakest, and
    the second is streamed rather than evicting its sibling, which the
    wave is about to search.  The cache holds both until the search."""
    client = fresh_client(world, "off")
    cache, fixed = client.cache, client.dram_used_bytes
    assert cache.capacity_clusters == 3

    def entry(cluster_id, weight):
        cache.record_access(cluster_id, 0.0, weight)
        return CachedCluster(cluster_id, HnswIndex(24, HnswParams(m=4)),
                             [], 0, (1, 0, 0), nbytes=1000)

    client.engine.fetcher.offer([entry(0, 9), entry(1, 8), entry(2, 1)])
    first, second = entry(3, 3), entry(4, 5)
    with client:
        client.engine.fetcher.offer([first, second])
        assert cache.evictions == 1 and 2 not in cache
        assert first.cluster_id in cache and second.streamed
        assert cache.cached_bytes == 3 * 1000
        assert cache.held_bytes == 4 * 1000
        assert client.dram_used_bytes == fixed + 4 * 1000
        cache.pin(second)    # the wave's search
        cache.unpin(second)
    assert cache.held_bytes == cache.cached_bytes == 3 * 1000
    assert client.dram_used_bytes == fixed + cache.cached_bytes
