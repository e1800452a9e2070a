"""Tier accounting: EWMA access frequencies and the one residency rule.

The cache's frequency tracker and its admission rule are the control
plane of the hot/cold split: the split sends a missing cluster hot
exactly when the cache would admit it.  These tests pin their exact
semantics (scores under the lock; the split's dry run agreeing with
``put``; oversized clusters, pinned residents and a zero budget).
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Deployment
from repro.core import DHnswConfig, DHnswClient
from repro.core.cache import (FREQ_HALFLIFE_US, CachedCluster,
                              ClusterCache)
from repro.datasets.synthetic import make_clustered
from repro.hnsw import HnswIndex, HnswParams


class TestEwmaFrequency:
    def test_first_access_scores_one(self):
        cache = ClusterCache(4)
        assert cache.record_access(3, 1000.0) == 1.0

    def test_absent_cluster_reads_zero(self):
        cache = ClusterCache(4)
        assert cache.frequency(9, 0.0) == 0.0

    def test_same_instant_accumulates_exactly(self):
        cache = ClusterCache(4)
        for _ in range(10):
            cache.record_access(1, 500.0)
        assert cache.frequency(1, 500.0) == 10.0

    def test_halflife_decay(self):
        cache = ClusterCache(4)
        cache.record_access(1, 0.0)
        # One halflife later the old score is worth exactly half.
        assert cache.frequency(1, FREQ_HALFLIFE_US) == pytest.approx(0.5)
        assert (cache.record_access(1, FREQ_HALFLIFE_US)
                == pytest.approx(1.5))

    def test_frequency_read_does_not_mutate(self):
        cache = ClusterCache(4)
        cache.record_access(1, 0.0)
        cache.frequency(1, 3 * FREQ_HALFLIFE_US)
        # The stored (score, last) pair is untouched by reads: a second
        # read at the same horizon gives the same answer.
        assert cache.frequency(1, 3 * FREQ_HALFLIFE_US) == pytest.approx(0.125)

    def test_stale_timestamp_never_inflates(self):
        # Out-of-order timestamps (pipelined waves) must not decay
        # backwards or move last-access earlier.
        cache = ClusterCache(4)
        cache.record_access(1, 2000.0)
        cache.record_access(1, 1000.0)   # late arrival
        assert cache.frequency(1, 2000.0) == 2.0

    def test_counters_exact_under_contention(self):
        # Many threads bumping the same cluster at one instant: the score
        # is += 1 under the lock, so the total must be exact, not
        # approximately N.
        cache = ClusterCache(4)
        threads = [threading.Thread(
            target=lambda: [cache.record_access(7, 100.0)
                            for _ in range(200)]) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert cache.frequency(7, 100.0) == 8 * 200

    def test_survives_eviction(self):
        # The admission signal must outlive residency: evicting the entry
        # does not forget its access history.
        cache = ClusterCache(1)
        index = HnswIndex(4, HnswParams(m=4))
        cache.record_access(1, 0.0)
        cache.put(CachedCluster(1, index, [], 0, (1, 0, 0), nbytes=10))
        # Worth as much as 1 and more recent: evicts 1.
        cache.record_access(2, 0.0)
        cache.put(CachedCluster(2, index, [], 0, (1, 0, 0), nbytes=10))
        assert 1 not in cache
        assert cache.frequency(1, 0.0) == 1.0


# ----------------------------------------------------------------------
INDEX = HnswIndex(4, HnswParams(m=4))


def entry(cid, nbytes):
    return CachedCluster(cid, INDEX, [], 0, (1, 0, 0), nbytes=nbytes)


def offered_in_value_order(cache, offers, now_us):
    """What ``put`` admits when ``offers`` arrive most valuable first."""
    order = sorted(offers, key=lambda cid: (
        -cache.frequency(cid, now_us) * offers[cid], cid))
    return {cid for cid in order
            if cache.put(entry(cid, offers[cid]), now_us=now_us)
            is not None}


class TestOneResidencyRule:
    @settings(deadline=None, max_examples=200)
    @given(capacity=st.integers(min_value=1, max_value=6),
           byte_cap=st.one_of(st.none(),
                              st.integers(min_value=0, max_value=400)),
           residents=st.lists(st.tuples(
               st.integers(min_value=1, max_value=120),   # nbytes
               st.integers(min_value=0, max_value=5),     # weight
               st.booleans()),                             # pinned
               max_size=8),
           offers=st.lists(st.tuples(
               st.integers(min_value=1, max_value=120),
               st.integers(min_value=0, max_value=5)),
               min_size=1, max_size=8))
    def test_split_prediction_equals_what_put_admits(
            self, capacity, byte_cap, residents, offers):
        cache = ClusterCache(capacity, capacity_bytes=byte_cap)
        now = 100.0
        for cid, (nbytes, _, _) in enumerate(residents):
            cache.put(entry(cid, nbytes), now_us=0.0)
        for cid, (_, weight, pinned) in enumerate(residents):
            if weight:
                cache.record_access(cid, now, weight)
            resident = cache.peek(cid)
            if pinned and resident is not None:
                cache.pin(resident)
        offered = {}
        for index, (nbytes, weight) in enumerate(offers):
            cid = len(residents) + index
            offered[cid] = nbytes
            if weight:
                cache.record_access(cid, now, weight)
        before = (cache._residents(), cache.cached_bytes,
                  cache.counters(), cache.streamed)
        predicted = cache.admissions(offered, now)
        # A dry run: the cache is exactly as it was.
        assert (cache._residents(), cache.cached_bytes,
                cache.counters(), cache.streamed) == before
        assert predicted == offered_in_value_order(cache, offered, now)

    def test_cluster_larger_than_byte_cap_is_never_admitted(self):
        cache = ClusterCache(4, capacity_bytes=100)
        cache.record_access(1, 0.0, 50)
        assert cache.admissions({1: 101}, 0.0) == set()
        assert cache.put(entry(1, 101)) is None
        assert len(cache) == 0

    def test_pinned_resident_is_never_a_victim(self):
        cache = ClusterCache(2, capacity_bytes=100)
        weak, strong = entry(1, 50), entry(2, 50)
        cache.put(weak)
        cache.put(strong)
        cache.record_access(1, 0.0, 1)
        cache.record_access(2, 0.0, 9)
        cache.record_access(3, 0.0, 5)
        cache.pin(weak)
        # The weakest resident is pinned, so the offer is judged against
        # the next one, which is worth more: it is not admitted.
        assert cache.admissions({3: 50}, 0.0) == set()
        assert cache.put(entry(3, 50)) is None
        assert 1 in cache and 2 in cache
        cache.unpin(weak)
        assert cache.admissions({3: 50}, 0.0) == {3}
        assert cache.put(entry(3, 50)) == [weak]

    @staticmethod
    def grown_past_the_cap():
        """Residents of 60 B and 30 B (the 30 B one weaker) under a
        100 B cap; the 60 B one is about to grow by 40 B."""
        cache = ClusterCache(4, capacity_bytes=100)
        grown, weak = entry(1, 60), entry(2, 30)
        cache.put(grown)
        cache.put(weak)
        cache.record_access(1, 0.0, 5)
        cache.record_access(2, 0.0, 1)
        return cache, grown, weak

    def test_grow_evicts_what_put_would_for_the_new_size(self):
        cache, grown, weak = self.grown_past_the_cap()
        cache.grow(grown, 40)
        assert 2 not in cache and cache.peek(1) is grown
        assert grown.nbytes == cache.cached_bytes == 100
        assert cache.cached_bytes <= cache.capacity_bytes
        assert cache.evictions == 1

    def test_grow_never_evicts_a_pinned_resident(self):
        cache, grown, weak = self.grown_past_the_cap()
        cache.pin(weak)
        cache.grow(grown, 40)
        # No unpinned resident can make room, so the rule would stream
        # the grown entry: it leaves, and the pinned one stays.
        assert 1 not in cache and cache.peek(2) is weak
        assert cache.cached_bytes == 30 <= cache.capacity_bytes
        # A grown entry a search is reading stays too, over the cap
        # until a later put or grow finds it unpinned.
        cache, grown, weak = self.grown_past_the_cap()
        cache.pin(weak)
        cache.pin(grown)
        cache.grow(grown, 40)
        assert cache.peek(1) is grown and cache.peek(2) is weak
        assert cache.cached_bytes == 130 and cache.evictions == 0


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiered_world():
    rng = np.random.default_rng(11)
    corpus = make_clustered(2500, 24, num_clusters=10, cluster_std=0.05,
                            rng=rng)
    config = DHnswConfig(num_representatives=10, nprobe=3, seed=4,
                         cold_tier="pq", cache_fraction=1.0)
    deployment = Deployment(corpus, config, num_compute_instances=1,
                            simulate_link_contention=False)
    return corpus, config, deployment


def make_tiered_client(world, budget_bytes):
    _, config, deployment = world
    tiered = dataclasses.replace(config,
                                 hot_tier_budget_bytes=budget_bytes)
    return DHnswClient(deployment.layout, deployment.meta, tiered,
                       cost_model=deployment.effective_cost_model,
                       name="tier-test")


def fetch_bytes(client, cid):
    _, [(_, ranges)] = client.engine.fetcher.extent_descriptors([cid])
    return sum(length for _, length in ranges)


class TestTierSplit:
    def test_cluster_larger_than_byte_cap_is_served_cold(self, tiered_world):
        client = make_tiered_client(tiered_world, None)
        client = make_tiered_client(tiered_world,
                                    fetch_bytes(client, 0) - 1)
        for _ in range(5):
            client.cache.record_access(0, client.node.clock.now_us, 100)
            assert client.tier_store.split([[0]]) == ([[]], {0: [0]})
        # It fits a budget of exactly its bytes.
        client = make_tiered_client(tiered_world, fetch_bytes(client, 0))
        client.cache.record_access(0, client.node.clock.now_us)
        assert client.tier_store.split([[0]]) == ([[0]], {})

    def test_zero_budget_serves_everything_cold(self, tiered_world):
        client = make_tiered_client(tiered_world, 0)
        everything = list(range(len(client.metadata.clusters)))
        for cid in everything:
            client.cache.record_access(cid, client.node.clock.now_us, 10)
        hot, cold = client.tier_store.split([everything, everything[:3]])
        assert hot == [[], []]
        assert cold == {cid: [0, 1] if cid < 3 else [0]
                        for cid in everything}

    def test_split_sends_hot_what_the_cache_admits(self, tiered_world):
        """Two clusters that cannot both fit: the more valuable one is
        sent hot (its fetch will be admitted), the other served cold."""
        client = make_tiered_client(tiered_world, None)
        a, b = 0, 1
        client = make_tiered_client(
            tiered_world, max(fetch_bytes(client, a), fetch_bytes(client, b)))
        now = client.node.clock.now_us
        client.cache.record_access(a, now, 1)
        client.cache.record_access(b, now, 8)
        assert client.tier_store.split([[a, b]]) == ([[b]], {a: [0]})
