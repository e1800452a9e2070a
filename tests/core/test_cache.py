"""Cluster cache behaviour: LRU among equals, frequency x bytes above."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.cache import FREQ_HALFLIFE_US, CachedCluster, ClusterCache
from repro.errors import ConfigError
from repro.hnsw import HnswIndex, HnswParams


def make_entry(cluster_id: int, nbytes: int = 100) -> CachedCluster:
    return CachedCluster(cluster_id=cluster_id,
                         index=HnswIndex(4, HnswParams(m=4)),
                         overflow=[], overflow_tail=0,
                         extent_epoch=(1, 0, 0), nbytes=nbytes)


class TestLruSemantics:
    def test_put_get(self):
        cache = ClusterCache(2)
        cache.put(make_entry(1))
        assert cache.get(1).cluster_id == 1

    def test_miss_returns_none_and_counts(self):
        cache = ClusterCache(2)
        assert cache.get(7) is None
        assert cache.misses == 1

    def test_eviction_order_is_lru(self):
        cache = ClusterCache(2)
        cache.put(make_entry(1))
        cache.put(make_entry(2))
        cache.get(1)            # 1 is now most recent
        evicted = cache.put(make_entry(3))
        assert [e.cluster_id for e in evicted] == [2]
        assert 1 in cache and 3 in cache and 2 not in cache

    def test_peek_does_not_touch_recency(self):
        cache = ClusterCache(2)
        cache.put(make_entry(1))
        cache.put(make_entry(2))
        cache.peek(1)           # must NOT refresh 1
        evicted = cache.put(make_entry(3))
        assert [e.cluster_id for e in evicted] == [1]

    def test_peek_does_not_count(self):
        cache = ClusterCache(2)
        cache.peek(9)
        assert cache.misses == 0 and cache.hits == 0

    def test_replace_same_id_does_not_evict_others(self):
        cache = ClusterCache(2)
        cache.put(make_entry(1))
        cache.put(make_entry(2))
        evicted = cache.put(make_entry(1, nbytes=999))
        assert evicted == []
        assert cache.get(1).nbytes == 999

    def test_pop_lru(self):
        """With nothing recorded, ``put`` evicts least recently used
        first, one victim per admission over the cap."""
        cache = ClusterCache(2)
        cache.put(make_entry(1))
        cache.put(make_entry(2))
        assert [victim.cluster_id
                for victim in cache.put(make_entry(3))] == [1]
        assert [victim.cluster_id
                for victim in cache.put(make_entry(4))] == [2]
        assert len(cache) == 2 and 3 in cache and 4 in cache

    def test_capacity_one(self):
        cache = ClusterCache(1)
        cache.put(make_entry(1))
        evicted = cache.put(make_entry(2))
        assert [e.cluster_id for e in evicted] == [1]
        assert len(cache) == 1


class TestBookkeeping:
    def test_cached_bytes(self):
        cache = ClusterCache(3)
        cache.put(make_entry(1, 10))
        cache.put(make_entry(2, 30))
        assert cache.cached_bytes == 40

    def test_cached_bytes_matches_brute_force_sum(self):
        """The O(1) running total tracks the true sum through every
        mutating operation (put/replace/evict/grow/invalidate/clear), and
        neither a put nor a grow takes it past the byte cap."""
        rng = np.random.default_rng(7)
        cache = ClusterCache(5, capacity_bytes=1000)
        for step in range(300):
            op = rng.integers(0, 6)
            cid = int(rng.integers(0, 12))
            if op <= 1:
                cache.put(make_entry(cid, int(rng.integers(1, 500))))
            elif op == 2:
                cache.grow(make_entry(cid), int(rng.integers(1, 50)))
            elif op == 3:
                cache.invalidate(cid)
            elif op == 4 and cache.peek(cid) is not None:
                cache.grow(cache.peek(cid), int(rng.integers(1, 300)))
            else:
                cache.get(cid)
            if step % 50 == 49:
                cache.invalidate_all()
            brute_force = sum(entry.nbytes
                              for entry in cache._entries.values())
            assert cache.cached_bytes == brute_force <= 1000
            assert cache.held_bytes == cache.cached_bytes

    def test_grow_counts_resident_entries_only(self):
        cache = ClusterCache(2)
        resident, fresh = make_entry(1, 10), make_entry(2, 10)
        cache.put(resident)
        cache.grow(resident, 5)
        cache.grow(fresh, 7)
        assert resident.nbytes == 15 and fresh.nbytes == 17
        assert cache.cached_bytes == cache.held_bytes == 15
        # A replaced entry is no longer the resident one.
        cache.put(make_entry(1, 40))
        cache.grow(resident, 1)
        assert resident.nbytes == 16
        assert cache.cached_bytes == cache.held_bytes == 40

    def test_invalidate(self):
        cache = ClusterCache(2)
        cache.put(make_entry(1))
        assert cache.invalidate(1)
        assert not cache.invalidate(1)
        assert cache.invalidations == 1

    def test_invalidate_all(self):
        cache = ClusterCache(4)
        cache.put(make_entry(1))
        cache.put(make_entry(2))
        cache.invalidate_all()
        assert len(cache) == 0
        assert cache.invalidations == 2

    def test_every_exit_hands_the_bytes_back(self):
        """Evicted, replaced, evicted by a grown sibling, invalidated one
        by one or all at once: each entry leaves the cache's ledger with
        exactly its ``nbytes``, what it grew by included."""
        cache = ClusterCache(2, capacity_bytes=60)
        cache.put(make_entry(1, 10))
        cache.put(make_entry(2, 20))
        cache.put(make_entry(3, 30))          # evicts 1
        assert cache.held_bytes == 50
        grown = make_entry(2, 21)
        cache.put(grown)                       # replaces 2
        assert cache.held_bytes == 51
        cache.grow(grown, 14)                  # 65 > 60: evicts 3
        assert 3 not in cache and cache.held_bytes == 35
        assert cache.invalidate(2)             # with what it grew by
        assert cache.held_bytes == 0
        cache.put(make_entry(4, 40))
        cache.put(make_entry(5, 20))
        assert cache.held_bytes == 60
        cache.invalidate_all()
        assert cache.held_bytes == cache.cached_bytes == 0
        assert not cache.invalidate(4) and cache.held_bytes == 0

    def test_put_of_absent_key_counts_the_fetch_as_miss(self):
        cache = ClusterCache(2)
        cache.put(make_entry(1))
        assert cache.misses == 1
        # Replacing a resident key is not a miss.
        cache.put(make_entry(1, nbytes=7))
        assert cache.misses == 1

    def test_evictions_counted_inside_put(self):
        cache = ClusterCache(1)
        cache.put(make_entry(1))
        cache.put(make_entry(2))
        assert cache.evictions == 1

    def test_counters_reads_atomically(self):
        cache = ClusterCache(2)
        cache.put(make_entry(1))
        cache.get(1)
        assert cache.counters() == (1, 1, 0)

    def test_hit_rate(self):
        cache = ClusterCache(2)
        cache.put(make_entry(1))    # miss (the fetch that filled it)
        cache.get(1)                # hit
        cache.get(2)                # miss
        assert cache.hit_rate() == pytest.approx(1.0 / 3.0)

    def test_hit_rate_empty(self):
        assert ClusterCache(1).hit_rate() == 0.0

    def test_invalid_capacity(self):
        with pytest.raises(ConfigError):
            ClusterCache(0)


def recorded(cache: ClusterCache, weights: dict[int, float],
             now_us: float = 0.0) -> ClusterCache:
    """``cache`` with each cluster's access recorded at ``now_us``."""
    for cluster_id, weight in weights.items():
        cache.record_access(cluster_id, now_us, weight)
    return cache


class TestValueRanking:
    """An entry is worth its access frequency times its bytes."""

    def test_equal_values_keep_lru_order(self):
        cache = recorded(ClusterCache(2), {1: 3.0, 2: 3.0, 3: 3.0})
        cache.put(make_entry(1), now_us=10.0)
        cache.put(make_entry(2), now_us=10.0)
        cache.get(1)            # 1 is now most recent
        evicted = cache.put(make_entry(3), now_us=10.0)
        assert [e.cluster_id for e in evicted] == [2]
        assert cache.evictions == 1 and cache.streamed == 0

    def test_one_shot_cluster_is_streamed_past_hotter_residents(self):
        cache = recorded(ClusterCache(2), {1: 5.0, 2: 4.0, 3: 1.0})
        cache.put(make_entry(1), now_us=10.0)
        cache.put(make_entry(2), now_us=10.0)
        one_shot = make_entry(3)
        assert cache.put(one_shot, now_us=10.0) is None
        assert one_shot.streamed and 3 not in cache
        assert 1 in cache and 2 in cache
        # One miss for the fetch, no eviction.
        assert cache.counters() == (0, 3, 0) and cache.streamed == 1
        assert cache.cached_bytes == 200

    def test_at_equal_frequency_the_larger_entry_stays(self):
        cache = recorded(ClusterCache(1), {1: 2.0, 2: 2.0})
        cache.put(make_entry(1, nbytes=500), now_us=10.0)
        assert cache.put(make_entry(2, nbytes=100), now_us=10.0) is None
        assert cache.peek(1).nbytes == 500
        # The other way round, the larger one displaces the smaller.
        cache = recorded(ClusterCache(1), {1: 2.0, 2: 2.0})
        cache.put(make_entry(1, nbytes=100), now_us=10.0)
        evicted = cache.put(make_entry(2, nbytes=500), now_us=10.0)
        assert [e.cluster_id for e in evicted] == [1]

    def test_value_decays_with_the_clock(self):
        """A cluster hot long ago loses to one warm now."""
        cache = recorded(ClusterCache(1), {1: 8.0})
        cache.put(make_entry(1), now_us=0.0)
        recorded(cache, {2: 1.0}, now_us=4 * FREQ_HALFLIFE_US)
        evicted = cache.put(make_entry(2), now_us=4 * FREQ_HALFLIFE_US)
        assert [e.cluster_id for e in evicted] == [1]

    def test_pinned_entries_are_never_the_victim(self):
        cache = recorded(ClusterCache(2), {1: 1.0, 2: 6.0, 3: 4.0, 4: 9.0})
        cold, hot = make_entry(1), make_entry(2)
        cache.put(cold, now_us=10.0)
        cache.put(hot, now_us=10.0)
        cache.pin(cold)
        # The weakest *unpinned* resident is the hot one: 3 is streamed
        # even though it is worth more than the pinned cold entry ...
        assert cache.put(make_entry(3), now_us=10.0) is None
        # ... and 4, worth more than the hot one, evicts it, not 1.
        evicted = cache.put(make_entry(4), now_us=10.0)
        assert evicted == [hot]
        # Next, 4 is the only unpinned resident: 5 evicts it, and the
        # pinned cold entry, worth far less, stays.
        four = cache.peek(4)
        recorded(cache, {5: 9.5}, now_us=10.0)
        assert cache.put(make_entry(5), now_us=10.0) == [four]
        assert 1 in cache and 5 in cache

    def test_spill_takes_the_weakest(self):
        """Each admission over the cap evicts the weakest resident."""
        cache = recorded(ClusterCache(3),
                         {1: 5.0, 2: 1.0, 3: 3.0, 4: 9.0, 5: 9.0, 6: 9.0})
        for cluster_id in (1, 2, 3):
            cache.put(make_entry(cluster_id), now_us=10.0)
        assert [cache.put(make_entry(cluster_id), now_us=10.0)[0].cluster_id
                for cluster_id in (4, 5, 6)] == [2, 3, 1]

    def test_streamed_entry_hands_its_bytes_back_when_unpinned(self):
        cache = recorded(ClusterCache(1), {1: 5.0, 2: 1.0})
        cache.put(make_entry(1, nbytes=10), now_us=10.0)
        streamed = make_entry(2, nbytes=40)
        assert cache.put(streamed, now_us=10.0) is None
        assert cache.held_bytes == 50   # held for its wave ...
        cache.pin(streamed)             # ... which searches it ...
        cache.pin(streamed)
        cache.grow(streamed, 5)         # (a top-up grafts onto it)
        cache.unpin(streamed)
        assert cache.held_bytes == 55   # ... until the last pin drops
        cache.unpin(streamed)
        assert cache.held_bytes == 10 and not streamed.streamed
        assert cache.cached_bytes == 10


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
        cache.record_access(1, 0.0)
        cache.put(make_entry(1, 10))
        # Worth as much as 1 and more recent: evicts 1.
        cache.record_access(2, 0.0)
        cache.put(make_entry(2, 10))
        assert 1 not in cache
        assert cache.frequency(1, 0.0) == 1.0


class TestByteCap:
    def test_cluster_larger_than_byte_cap_is_never_admitted(self):
        cache = ClusterCache(4, capacity_bytes=100)
        cache.record_access(1, 0.0, 50)
        oversized = make_entry(1, 101)
        assert cache.put(oversized) is None
        assert oversized.streamed and len(cache) == 0
        # It fits a cap of exactly its bytes.
        cache = ClusterCache(4, capacity_bytes=101)
        assert cache.put(make_entry(1, 101)) == []

    def test_pinned_resident_is_never_a_victim(self):
        cache = ClusterCache(2, capacity_bytes=100)
        weak, strong = make_entry(1, 50), make_entry(2, 50)
        cache.put(weak)
        cache.put(strong)
        cache.record_access(1, 0.0, 1)
        cache.record_access(2, 0.0, 9)
        cache.record_access(3, 0.0, 5)
        cache.pin(weak)
        # The weakest resident is pinned, so the offer is judged against
        # the next one, which is worth more: it is streamed.
        assert cache.put(make_entry(3, 50)) is None
        assert 1 in cache and 2 in cache
        cache.unpin(weak)
        assert cache.put(make_entry(3, 50)) == [weak]

    @staticmethod
    def grown_past_the_cap():
        """Residents of 60 B and 30 B (the 30 B one weaker) under a
        100 B cap; the 60 B one is about to grow by 40 B."""
        cache = ClusterCache(4, capacity_bytes=100)
        grown, weak = make_entry(1, 60), make_entry(2, 30)
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
        # The same put, of a 100 B entry for cluster 1, evicts the same.
        cache, _, weak = self.grown_past_the_cap()
        assert cache.put(make_entry(1, 100)) == [weak]

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

    def test_peak_held_bytes_is_the_high_water_mark(self):
        cache = recorded(ClusterCache(2, capacity_bytes=100), {1: 5.0})
        cache.put(make_entry(1, 60), now_us=0.0)
        streamed = make_entry(2, 70)
        assert cache.put(streamed, now_us=0.0) is None
        cache.pin(streamed)
        cache.grow(streamed, 5)
        assert cache.held_bytes == cache.peak_held_bytes == 135
        cache.unpin(streamed)
        cache.invalidate_all()
        assert cache.held_bytes == 0 and cache.peak_held_bytes == 135
