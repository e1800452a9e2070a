"""Tier accounting: EWMA access frequencies, promotion hysteresis,
pinned-entry protection.

The cache's frequency tracker and the tier store's rebalance loop are
the control plane of the hot/cold split — these tests pin their exact
semantics (scores under the lock, no ping-pong under alternating
access, never demoting an entry a worker thread is searching).
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest

from repro.cluster import Deployment
from repro.core import DHnswConfig, DHnswClient
from repro.core.cache import (FREQ_HALFLIFE_US, CachedCluster,
                              ClusterCache)
from repro.datasets.synthetic import make_clustered
from repro.hnsw import HnswIndex, HnswParams
from repro.layout.group_layout import cluster_read_extent


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
        # The promotion signal must outlive residency: evicting the entry
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
@pytest.fixture(scope="module")
def tiered_world():
    rng = np.random.default_rng(11)
    corpus = make_clustered(2500, 24, num_clusters=10, cluster_std=0.05,
                            rng=rng)
    config = DHnswConfig(num_representatives=10, nprobe=3, seed=4,
                         cold_tier="pq")
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


def cluster_size(client, cid):
    return cluster_read_extent(client.metadata, cid)[1]


def touch(client, cid):
    """One batch's worth of access: EWMA bump + cold-demand mark."""
    tier = client.tier_store
    client.cache.record_access(cid, client.node.clock.now_us)
    tier._accessed_cold.add(cid)


class TestPromotionHysteresis:
    def test_alternating_access_does_not_ping_pong(self, tiered_world):
        client = make_tiered_client(tiered_world, None)
        # Budget fits exactly one of the two clusters.
        a, b = 0, 1
        budget = max(cluster_size(client, a), cluster_size(client, b))
        client = make_tiered_client(tiered_world, budget)
        tier = client.tier_store

        touch(client, a)
        assert tier.rebalance() == (1, 0)
        assert tier.hot_ids == {a}

        # Alternate a/b for many rounds: scores stay comparable, so the
        # hysteresis band (2x) must block every demotion.
        for _ in range(10):
            touch(client, b)
            tier.rebalance()
            touch(client, a)
            tier.rebalance()
        assert tier.hot_ids == {a}
        assert tier.demotions == 0

    def test_genuinely_hot_candidate_displaces(self, tiered_world):
        client = make_tiered_client(tiered_world, None)
        a, b = 0, 1
        budget = max(cluster_size(client, a), cluster_size(client, b))
        client = make_tiered_client(tiered_world, budget)
        tier = client.tier_store

        touch(client, a)
        tier.rebalance()
        assert tier.hot_ids == {a}
        # b becomes decisively hotter than a (beyond the 2x band).
        for _ in range(5):
            touch(client, b)
        promotions, demotions = tier.rebalance()
        assert (promotions, demotions) == (1, 1)
        assert tier.hot_ids == {b}

    def test_oversized_cluster_never_promotes(self, tiered_world):
        client = make_tiered_client(tiered_world, None)
        size = cluster_size(client, 0)
        client = make_tiered_client(tiered_world, size // 2)
        tier = client.tier_store
        for _ in range(10):
            touch(client, 0)
        assert tier.rebalance() == (0, 0)
        assert tier.hot_ids == set()

    def test_unbounded_budget_promotes_everything_accessed(
            self, tiered_world):
        client = make_tiered_client(tiered_world, None)
        tier = client.tier_store
        for cid in (0, 1, 2):
            touch(client, cid)
        assert tier.rebalance() == (3, 0)
        assert tier.hot_ids == {0, 1, 2}
        # Rebalance is edge-triggered: nothing accessed, nothing moves.
        assert tier.rebalance() == (0, 0)

    def test_pinned_entry_never_demoted_mid_wave(self, tiered_world):
        client = make_tiered_client(tiered_world, None)
        a, b = 0, 1
        budget = max(cluster_size(client, a), cluster_size(client, b))
        client = make_tiered_client(tiered_world, budget)
        tier = client.tier_store
        fixed_bytes = client.node.dram_used_bytes  # meta-HNSW + codebook

        touch(client, a)
        tier.rebalance()
        # Simulate a resident entry mid-search: pinned in the cache.
        entry = CachedCluster(a, HnswIndex(24, HnswParams(m=4)), [], 0,
                              (1, 0, 0), nbytes=64)
        client.node.reserve_dram(entry.nbytes, force=True)
        client.cache.put(entry)
        client.cache.pin(entry)

        for _ in range(8):
            touch(client, b)
        promotions, demotions = tier.rebalance()
        # The only possible victim is pinned: no demotion, and b cannot
        # fit, so no promotion either.
        assert (promotions, demotions) == (0, 0)
        assert tier.hot_ids == {a}
        assert a in client.cache

        # Once the wave releases its pin the same pressure succeeds.
        client.cache.unpin(entry)
        for _ in range(8):
            touch(client, b)
        promotions, demotions = tier.rebalance()
        assert (promotions, demotions) == (1, 1)
        assert tier.hot_ids == {b}
        assert a not in client.cache
        # The demotion's bytes went back through the cache's one exit.
        assert client.cache.cached_bytes == 0
        assert client.node.dram_used_bytes == fixed_bytes


class TestTierInventory:
    def test_counts_and_bytes(self, tiered_world):
        client = make_tiered_client(tiered_world, None)
        tier = client.tier_store
        total = len(client.metadata.clusters)
        assert tier.tier_counts() == (0, total, 0)
        assert tier.hot_tier_bytes() == 0

        touch(client, 0)
        tier.rebalance()
        hot, cold, promoting = tier.tier_counts()
        assert (hot, cold) == (1, total - 1)
        # Promoted but not yet fetched: counted as promoting.
        assert promoting == 1
        assert tier.hot_tier_bytes() == cluster_size(client, 0)
