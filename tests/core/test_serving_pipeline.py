"""The serving engine: the smallest cache, a READ abandoned on error,
cache thread-safety.

Concerns of the pipelined executor that the ablation and tuning suites
don't reach:

* a cache of one cluster still answers exactly (the hit wave's refetch
  path these tests once pinned is gone: hits stay pinned from the start
  of their batch, so none can be evicted before it is searched);
* an error escaping the loop retires the READ it has in flight;
* :class:`ClusterCache` must survive concurrent hammering with its
  bookkeeping intact.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core import DHnswClient
from repro.core.cache import ClusterCache
from repro.errors import StaleReadError
from tests.core.test_cache import make_entry


def make_client(deployment, config):
    return DHnswClient(deployment.layout, deployment.meta, config,
                       cost_model=deployment.cost_model)


class TestHitWaveRefetch:
    """The smallest cache, end to end."""

    def test_capacity_one_refetch_end_to_end(self, built_deployment,
                                             small_dataset, small_config):
        """With capacity 1 ``search_batch`` still yields correct answers
        and non-degenerate accounting."""
        config = small_config.replace(cache_fraction=1e-9)  # capacity 1
        client = make_client(built_deployment, config)
        assert client.cache.capacity_clusters == 1
        batch = client.search_batch(small_dataset.queries[:8], 10,
                                    ef_search=32)
        reference = make_client(built_deployment, small_config).search_batch(
            small_dataset.queries[:8], 10, ef_search=32)
        assert batch.ids_list() == reference.ids_list()
        assert batch.cache_misses >= batch.clusters_fetched > 0


class TestPrefetchAbandonedOnError:
    """An error escaping the pipelined loop with wave ``i+1``'s READ in
    flight must retire that READ: its copy-on-write guard otherwise stays
    on the memory node for the life of the process."""

    def test_stale_decode_releases_prefetch_guard(
            self, built_deployment, small_config, small_dataset):
        config = small_config.replace(pipeline_waves=True)
        client = make_client(built_deployment, config)
        memory_node = built_deployment.layout.memory_node
        assert len(memory_node._guards) == 0
        decoder = client.engine.decoder
        decode_extent = decoder.decode_extent
        calls = 0

        def stale_once(cluster_id, extent_offset, payload):
            nonlocal calls
            calls += 1
            if calls == 1:
                # The re-pin path: wave 0's decode fails after wave 1's
                # prefetch was issued.
                raise StaleReadError("sealed by a concurrent cutover",
                                     op="READ")
            return decode_extent(cluster_id, extent_offset, payload)

        decoder.decode_extent = stale_once
        batch = client.search_batch(small_dataset.queries, 10, ef_search=32)

        assert calls > 1                      # the batch was re-planned
        assert batch.waves >= 2
        assert len(memory_node._guards) == 0
        fresh = make_client(built_deployment, config).search_batch(
            small_dataset.queries, 10, ef_search=32)
        assert batch.ids_list() == fresh.ids_list()
        for got, want in zip(batch.results, fresh.results):
            np.testing.assert_array_equal(got.distances, want.distances)


class TestClusterCacheThreadSafety:
    """Satellite 4 stress: concurrent puts/gets/invalidations leave the
    lock-guarded LRU internally consistent."""

    def test_concurrent_hammering_keeps_bookkeeping_consistent(self):
        cache = ClusterCache(8)
        errors: list[Exception] = []

        def worker(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for _ in range(500):
                    cid = int(rng.integers(0, 32))
                    op = int(rng.integers(0, 5))
                    if op <= 1:
                        cache.put(make_entry(cid, int(rng.integers(1, 100))))
                    elif op == 2:
                        entry = cache.get(cid)
                        assert entry is None or entry.cluster_id == cid
                    elif op == 3:
                        cache.peek(cid)
                    else:
                        cache.invalidate(cid)
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert len(cache) <= 8
        assert cache.cached_bytes == sum(
            entry.nbytes for entry in cache._entries.values())
        hits, misses, evictions = cache.counters()
        assert hits >= 0 and misses >= 0 and evictions >= 0
        # Every get was either a hit or a miss; 8 workers x 500 ops bound.
        assert hits + misses + evictions + cache.invalidations <= 8 * 500 * 2

    def test_concurrent_gets_of_resident_key_all_hit(self):
        cache = ClusterCache(2)
        cache.put(make_entry(5))
        barrier = threading.Barrier(6)

        def reader() -> None:
            barrier.wait()
            for _ in range(200):
                assert cache.get(5).cluster_id == 5

        threads = [threading.Thread(target=reader) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert cache.hits == 6 * 200
