"""Frequency x bytes cache admission, end to end through the client.

The serving engine records every routed cluster's access once per batch,
weighted by the queries that probe it; the fetcher offers each fetched
cluster to the cache, which admits it or streams it through its wave; and
the cache, the one DRAM ledger, holds exactly its residents between
batches plus, during a wave, what that wave streams — with or without a
byte cap, under which it never holds more than twice the cap.
"""

from __future__ import annotations

import collections

import pytest

from repro.cluster import Deployment
from repro.core import DHnswClient
from repro.core.cache import CachedCluster
from repro.hnsw import HnswIndex, HnswParams
from tests.serving.helpers import base_config, make_world

#: The cache's byte cap: none, or about two median clusters' fetches.
BYTE_CAP = pytest.mark.parametrize("byte_cap", ["off", "capped"])
BATCH = 8


@pytest.fixture(scope="module")
def world():
    corpus, queries, _ = make_world()
    deployment = Deployment(corpus, base_config(),
                            simulate_link_contention=False)
    return deployment, queries


def fresh_client(world, byte_cap: str = "off", **overrides) -> DHnswClient:
    deployment, _ = world
    config = deployment.config.replace(**overrides)
    if byte_cap == "capped":
        sizes = sorted(entry.blob_length
                       for entry in deployment.layout.metadata.clusters)
        config = config.replace(
            hot_tier_budget_bytes=2 * sizes[len(sizes) // 2])
    return DHnswClient(deployment.layout, deployment.meta, config,
                       cost_model=deployment.effective_cost_model,
                       name=f"admission-{byte_cap}")


def batches(world):
    _, queries = world
    return [queries[start:start + BATCH]
            for start in range(0, len(queries), BATCH)]


@BYTE_CAP
def test_each_routed_cluster_is_recorded_once_per_batch(world, byte_cap):
    """One recorder: per batch, every routed cluster gets exactly one
    bump, weighted by the number of queries that probe it — under a byte
    cap, too."""
    client = fresh_client(world, byte_cap)
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
    with client:
        for queries in batches(world):
            bumps.clear()
            client.search_batch(queries, 10)
            probes = collections.Counter(
                cid for row in routed[-1] for cid in set(row))
            assert sorted(bumps) == sorted(probes.items())


@BYTE_CAP
def test_dram_holds_the_cache_and_what_the_wave_streams(world, byte_cap):
    """Between batches the client holds its fixed bytes plus
    ``cache.cached_bytes``; inside a wave, the bytes of every entry it
    streams as well (``cache.held_bytes``), until the wave's pins drop.
    Under a byte cap the cache streams whatever it will not keep, and
    the residents never pass the cap."""
    client = fresh_client(world, byte_cap)
    fixed = client.dram_used_bytes  # the meta-HNSW
    streamed, loops = [], []
    executor = client.engine.executor
    run_wave_compute, ready_list = (executor.run_wave_compute,
                                    executor.ready_list)

    def checked(cid, entry, *args, **kwargs):
        passing = {id(entry): entry for entry in loops[-1].pinned.values()
                   if entry.streamed}
        assert client.cache.held_bytes == (
            client.cache.cached_bytes
            + sum(entry.nbytes for entry in passing.values()))
        assert client.dram_used_bytes == fixed + client.cache.held_bytes
        if entry.streamed:
            streamed.append(entry)
        return run_wave_compute(cid, entry, *args, **kwargs)

    def recording(*args, **kwargs):
        loops.append(ready_list(*args, **kwargs))
        return loops[-1]

    executor.run_wave_compute, executor.ready_list = checked, recording
    cap = client.cache.capacity_bytes
    with client:
        for queries in batches(world) * 2:
            result = client.search_batch(queries, 10)
            assert (client.dram_used_bytes
                    == fixed + client.cache.cached_bytes)
            assert result.cache_streamed <= result.clusters_fetched
            if cap is not None:
                assert client.cache.cached_bytes <= cap
    assert streamed, "no wave streamed a cluster; shrink the cache"
    assert client.cache.streamed == len(streamed)
    assert not any(entry.streamed for entry in streamed)


def test_a_wave_never_evicts_what_it_loaded(world):
    """Two fetched clusters of one wave, both worth more than the weakest
    resident but less than the rest: the first evicts the weakest, and
    the second is streamed rather than evicting its sibling, which the
    wave is about to search.  The cache holds both until the search."""
    client = fresh_client(world)
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


@pytest.mark.parametrize("pipeline", [False, True],
                         ids=["serial", "pipelined"])
def test_capped_batch_holds_at_most_twice_the_cap(world, pipeline):
    """With the whole corpus allowed by count, the byte cap alone bounds
    DRAM: each wave fetches at most the cap over the waves the loop keeps
    open, so while the batch runs the cache holds at most its residents
    (<= the cap) plus the open waves' streams (<= the cap), and after it
    nothing but its residents."""
    deployment, queries = world
    with fresh_client(world) as probe:
        largest = max(probe.engine.fetcher.fetch_bytes(cid) for cid in
                      range(len(deployment.layout.metadata.clusters)))
    cap = 2 * largest
    client = fresh_client(world, cache_fraction=1.0,
                          pipeline_waves=pipeline,
                          hot_tier_budget_bytes=cap)
    cache = client.cache
    with client:
        for batch in (queries[:24], queries[24:]):
            result = client.search_batch(batch, 10)
            assert result.waves > 1 and result.cache_streamed
            assert cache.peak_held_bytes <= 2 * cap
            assert cache.held_bytes == cache.cached_bytes <= cap
