"""Zero-copy lifetime protection: pins, deferred eviction, materialize.

The decode path hands the cache entries whose vector stores are
read-only ``frombuffer`` views over remote region memory.  These tests
pin the protections around that aliasing: a pinned entry (in-flight
compute) is never evicted, invalidating a pinned entry privatizes its
storage before the backing extent can be rewritten, and materialization
actually breaks the memory sharing without changing search results.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.cache import CachedCluster, ClusterCache
from repro.hnsw.index import HnswIndex
from repro.hnsw.params import HnswParams


def make_entry(cluster_id: int, nbytes: int = 100,
               adopted: bool = False) -> CachedCluster:
    """A small real entry; ``adopted=True`` mimics a zero-copy store."""
    index = HnswIndex(dim=4, params=HnswParams(m=4, seed=1))
    index.add(np.eye(4, dtype=np.float32))
    if adopted:
        index.graph._vectors.setflags(write=False)
    return CachedCluster(cluster_id=cluster_id, index=index, overflow=[],
                         overflow_tail=0, extent_epoch=(1, 0, 0),
                         nbytes=nbytes)


class TestPinnedEviction:
    def test_pinned_entry_survives_capacity_pressure(self):
        cache = ClusterCache(1)
        pinned = make_entry(0)
        cache.put(pinned)
        cache.pin(pinned)
        assert cache.put(make_entry(1)) is None  # streamed: no room
        assert len(cache) == 1  # never past the cap
        assert cache.peek(0) is pinned
        cache.unpin(pinned)
        evicted = cache.put(make_entry(2))
        assert {victim.cluster_id for victim in evicted} == {0}
        assert len(cache) == 1

    def test_pop_lru_skips_pinned_entries(self):
        cache = ClusterCache(2)
        pinned = make_entry(0)
        other = make_entry(1)
        cache.put(pinned)
        cache.put(other)
        cache.pin(pinned)
        # LRU but pinned -> the next one is the victim ...
        assert cache.put(make_entry(2)) == [other]
        # ... and so on, while the pinned entry stays.
        assert [victim.cluster_id
                for victim in cache.put(make_entry(3))] == [2]
        assert cache.peek(0) is pinned and len(cache) == 2

    def test_unpin_underflow_raises(self):
        cache = ClusterCache(2)
        entry = make_entry(0)
        cache.put(entry)
        with pytest.raises(ValueError):
            cache.unpin(entry)

    def test_cached_bytes_stay_consistent_under_pressure(self):
        cache = ClusterCache(2)
        pinned = make_entry(0, nbytes=10)
        cache.put(pinned)
        cache.pin(pinned)
        for cid in range(1, 30):
            cache.put(make_entry(cid, nbytes=10))
        cache.unpin(pinned)
        cache.put(make_entry(99, nbytes=10))
        resident = sum(cache.peek(cid).nbytes for cid in range(100)
                       if cache.peek(cid) is not None)
        assert cache.cached_bytes == resident
        assert len(cache) == 2


class TestMaterializeOnInvalidate:
    def test_invalidate_pinned_entry_privatizes_storage(self):
        cache = ClusterCache(2)
        entry = make_entry(0, adopted=True)
        assert not entry.index.graph.vectors.flags.writeable
        cache.put(entry)
        cache.pin(entry)
        assert cache.invalidate(0)
        # The in-flight searcher's views no longer alias the (about to
        # be rewritten) decode buffer.
        assert entry.index.graph.vectors.flags.writeable

    def test_invalidate_unpinned_entry_skips_the_copy(self):
        cache = ClusterCache(2)
        entry = make_entry(0, adopted=True)
        cache.put(entry)
        assert cache.invalidate(0)
        assert not entry.index.graph.vectors.flags.writeable

    def test_invalidate_all_materializes_only_pinned(self):
        cache = ClusterCache(4)
        pinned = make_entry(0, adopted=True)
        other = make_entry(1, adopted=True)
        cache.put(pinned)
        cache.put(other)
        cache.pin(pinned)
        cache.invalidate_all()
        assert pinned.index.graph.vectors.flags.writeable
        assert not other.index.graph.vectors.flags.writeable

    def test_materialize_all_reports_copies(self):
        cache = ClusterCache(4)
        cache.put(make_entry(0, adopted=True))
        cache.put(make_entry(1))  # already private
        assert cache.materialize_all() == 1
        assert cache.materialize_all() == 0  # idempotent

    def test_materialize_allocates_one_vector_store(self):
        """A searched index holds its vectors once, so privatizing them is
        one copy (the parent copied a second, compiled holder too)."""
        rng = np.random.default_rng(0)
        index = HnswIndex(dim=64, params=HnswParams(m=4, seed=1))
        index.add(rng.standard_normal((400, 64)).astype(np.float32))
        store_bytes = index.graph.vectors.nbytes
        index.graph._vectors = index.graph.vectors.copy()
        index.graph._vectors.setflags(write=False)
        index.search_candidates_batch(index.graph.vectors[:8], 5)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            assert index.materialize()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert index.graph.vectors.flags.writeable
        assert store_bytes <= after - before < 1.5 * store_bytes


class TestEndToEndAliasing:
    def test_cached_entry_aliases_region_until_materialized(
            self, mutable_deployment):
        deployment = mutable_deployment
        client = deployment.client(0)
        layout = deployment.layout
        generator = np.random.default_rng(3)
        probe = generator.standard_normal(
            (8, layout.dim)).astype(np.float32)
        before = client.search_batch(probe, k=5)
        entry = next(
            entry for entry in
            (client.cache.peek(cid)
             for cid in range(layout.metadata.num_clusters))
            if entry is not None)
        node = deployment.memory_nodes[0]
        region_bytes = np.frombuffer(
            node.read(layout.rkey, layout.addr(0), layout.region.length),
            dtype=np.uint8)
        vectors = entry.index.graph.vectors
        assert np.shares_memory(vectors, region_bytes)
        assert entry.materialize()
        assert not np.shares_memory(entry.index.graph.vectors, region_bytes)
        after = client.search_batch(probe, k=5)
        assert [r.ids.tolist() for r in after.results] == \
            [r.ids.tolist() for r in before.results]

    def test_pinned_invalidation_survives_region_scribble(
            self, mutable_deployment):
        deployment = mutable_deployment
        client = deployment.client(0)
        layout = deployment.layout
        generator = np.random.default_rng(5)
        probe = generator.standard_normal(
            (4, layout.dim)).astype(np.float32)
        client.search_batch(probe, k=3)
        cid, entry = next(
            (cid, entry) for cid, entry in
            ((cid, client.cache.peek(cid))
             for cid in range(layout.metadata.num_clusters))
            if entry is not None)
        snapshot = entry.index.graph.vectors.copy()
        client.cache.pin(entry)
        client.cache.invalidate(cid)
        # Simulate the retired extent being rewritten underneath.
        cluster = layout.metadata.clusters[cid]
        deployment.memory_nodes[0].write(
            layout.rkey, layout.addr(cluster.blob_offset),
            b"\xff" * cluster.blob_length)
        assert np.array_equal(entry.index.graph.vectors, snapshot)
        client.cache.unpin(entry)
