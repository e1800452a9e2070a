"""The PR-4 serving engine: the smallest cache, worker identity, cache
thread-safety.

Concerns of the pipelined multi-worker executor that the ablation and
tuning suites don't reach:

* a cache of one cluster still answers exactly (the hit wave's refetch
  path these tests once pinned is gone: hits stay pinned from the start
  of their batch, so none can be evicted before it is searched);
* ``search_workers > 1`` (worker processes; the test names predate the
  removal of the thread pool) must be bit-identical to the serial path
  in results *and* in simulated accounting;
* :class:`ClusterCache` must survive concurrent hammering with its
  bookkeeping intact.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

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


class TestWorkerIdentity:
    """Satellite 4: the worker count never changes results or simulated
    accounting — only wall-clock."""

    @pytest.fixture(scope="class")
    def reference(self, built_deployment, small_config, small_dataset):
        client = make_client(built_deployment, small_config)
        return client.search_batch(small_dataset.queries, 10, ef_search=32)

    def assert_identical(self, batch, reference):
        assert batch.ids_list() == reference.ids_list()
        for got, want in zip(batch.results, reference.results):
            np.testing.assert_array_equal(got.distances, want.distances)
        assert batch.sub_evals == reference.sub_evals
        assert batch.clusters_fetched == reference.clusters_fetched
        assert batch.breakdown.total_us == pytest.approx(
            reference.breakdown.total_us)

    def test_thread_workers_bit_identical(self, built_deployment,
                                          small_config, small_dataset,
                                          reference):
        with make_client(built_deployment,
                         small_config.replace(search_workers=4)) as client:
            batch = client.search_batch(small_dataset.queries, 10,
                                        ef_search=32)
        self.assert_identical(batch, reference)

    def test_process_workers_bit_identical(self, built_deployment,
                                           small_config, small_dataset,
                                           reference):
        with make_client(built_deployment, small_config.replace(
                search_workers=2)) as client:
            batch = client.search_batch(small_dataset.queries, 10,
                                        ef_search=32)
        self.assert_identical(batch, reference)

    def test_pipelined_threaded_bit_identical(self, built_deployment,
                                              small_config, small_dataset,
                                              reference):
        with make_client(built_deployment, small_config.replace(
                search_workers=4, pipeline_waves=True)) as client:
            batch = client.search_batch(small_dataset.queries, 10,
                                        ef_search=32)
        assert batch.ids_list() == reference.ids_list()
        assert batch.sub_evals == reference.sub_evals

    def test_close_is_idempotent(self, built_deployment, small_config):
        client = make_client(built_deployment,
                             small_config.replace(search_workers=2))
        client.close()
        client.close()


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
