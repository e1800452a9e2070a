"""Query-aware batched loading: dedup, waves, cache pruning."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import ClusterCache
from repro.core.query_planner import plan_batch, plan_naive
from repro.errors import ConfigError
from tests.core.test_cache import make_entry


def empty_cache(capacity: int = 8) -> ClusterCache:
    return ClusterCache(capacity)


class TestDeduplication:
    def test_each_cluster_fetched_once(self):
        required = [[1, 4], [4, 5], [3], [3]]  # the paper's Fig. 5 shape
        plan = plan_batch(required, empty_cache(), cache_capacity=8)
        fetched = [cid for wave in plan.waves
                   for cid in wave.fetch_cluster_ids]
        assert sorted(fetched) == [1, 3, 4, 5]
        assert len(fetched) == len(set(fetched))

    def test_duplicate_requests_counted(self):
        required = [[1, 4], [4, 5], [3], [3]]
        plan = plan_batch(required, empty_cache(), cache_capacity=8)
        assert plan.unique_clusters == 4
        assert plan.duplicate_requests_pruned == 2

    def test_every_pair_serviced_exactly_once(self):
        required = [[1, 4], [4, 5], [3], [3]]
        plan = plan_batch(required, empty_cache(), cache_capacity=8)
        serviced = [pair for wave in plan.waves for pair in wave.serviced]
        expected = {(q, c) for q, cids in enumerate(required) for c in cids}
        assert set(serviced) == expected
        assert len(serviced) == len(expected)


class TestWaves:
    def test_single_wave_when_fits(self):
        plan = plan_batch([[0, 1], [2]], empty_cache(), cache_capacity=8)
        assert len(plan.waves) == 1

    def test_waves_respect_capacity(self):
        required = [[i] for i in range(10)]
        plan = plan_batch(required, empty_cache(), cache_capacity=3)
        assert all(len(w.fetch_cluster_ids) <= 3 for w in plan.waves)
        assert len(plan.waves) == 4

    def test_earliest_row_first_ordering(self):
        # Cluster 9 is wanted by three rows, but row 0 wants 1 and 2:
        # rows are in priority order, so its clusters are fetched first,
        # in its probe order, whatever the demand.
        required = [[1, 2], [9], [9], [9, 1]]
        plan = plan_batch(required, empty_cache(), cache_capacity=1)
        assert [w.fetch_cluster_ids for w in plan.waves] == [(1,), (2,),
                                                             (9,)]
        assert plan.waves[0].serviced == ((0, 1), (3, 1))

    def test_serviced_pairs_stay_within_wave_clusters(self):
        required = [[i % 5] for i in range(20)]
        plan = plan_batch(required, empty_cache(), cache_capacity=2)
        for wave in plan.waves:
            allowed = set(wave.fetch_cluster_ids)
            assert {cid for _, cid in wave.serviced} <= allowed

    def test_waves_close_on_bytes(self):
        """Under a byte cap a wave closes before a miss would pass its
        share, and one larger than the share travels alone; the first
        wave is fixed once the row needing the miss it left out is
        routed."""
        sizes = {1: 40, 2: 50, 3: 30, 4: 120, 5: 10}
        required = [[1], [2], [3, 4], [5]]
        plan = plan_batch(required, empty_cache(), cache_capacity=8,
                          wave_bytes=100, fetch_bytes=sizes.__getitem__)
        assert [w.fetch_cluster_ids for w in plan.waves] == [
            (1, 2), (3,), (4,), (5,)]
        assert plan.first_wave_rows == 3


class TestCacheInteraction:
    def test_cached_clusters_not_fetched(self):
        cache = empty_cache()
        cache.put(make_entry(4))
        plan = plan_batch([[4, 5]], cache, cache_capacity=8)
        assert plan.cache_hit_cluster_ids == (4,)
        fetched = [cid for wave in plan.waves
                   for cid in wave.fetch_cluster_ids]
        assert fetched == [5]
        assert plan.total_fetches == 1

    def test_hits_are_planned_in_first_need_order(self):
        """A hit is in no wave, but it is in the plan, where the rows
        first need it: row, then probe rank — not ahead of the misses."""
        cache = empty_cache()
        cache.put(make_entry(2))
        plan = plan_batch([[7, 2], [2, 3]], cache, cache_capacity=8)
        assert [w.fetch_cluster_ids for w in plan.waves] == [(7, 3)]
        assert plan.clusters == ((7, (0,)), (2, (0, 1)), (3, (1,)))
        assert plan.ranks == ((0,), (1, 0), (1,))
        assert plan.cache_hit_cluster_ids == (2,)

    def test_all_hits_fetch_nothing(self):
        cache = empty_cache()
        cache.put(make_entry(1))
        cache.put(make_entry(2))
        plan = plan_batch([[1], [2]], cache, cache_capacity=8)
        assert plan.waves == ()
        assert plan.total_fetches == 0
        assert plan.cache_hit_cluster_ids == (1, 2)
        assert plan.clusters == ((1, (0,)), (2, (1,)))

    def test_first_wave_rows(self):
        """The first wave is fixed once the row that first needs its last
        cluster is routed; with fewer misses than a wave holds, a later
        row could still add one, so it takes every row."""
        required = [[1], [1, 2], [3], [4]]
        plan = plan_batch(required, empty_cache(), cache_capacity=2)
        assert plan.waves[0].fetch_cluster_ids == (1, 2)
        assert plan.first_wave_rows == 2
        plan = plan_batch(required, empty_cache(), cache_capacity=8)
        assert plan.first_wave_rows == len(required)

    def test_planner_uses_peek_not_get(self):
        cache = empty_cache()
        cache.put(make_entry(4))
        before = cache.counters()
        plan_batch([[4]], cache, cache_capacity=8)
        assert cache.counters() == before


class TestValidation:
    def test_invalid_capacity(self):
        with pytest.raises(ConfigError):
            plan_batch([[1]], empty_cache(), cache_capacity=0)

    def test_empty_batch(self):
        plan = plan_batch([], empty_cache(), cache_capacity=4)
        assert plan.waves == ()
        assert plan.unique_clusters == 0


BATCHES = st.lists(
    st.lists(st.integers(min_value=0, max_value=20), min_size=0,
             max_size=4),
    min_size=0, max_size=25)


@settings(max_examples=60, deadline=None)
@given(required=BATCHES,
       capacity=st.integers(min_value=1, max_value=6),
       cached=st.sets(st.integers(min_value=0, max_value=20), max_size=4),
       wave_bytes=st.one_of(st.none(),
                            st.integers(min_value=0, max_value=600)),
       sizes=st.lists(st.integers(min_value=1, max_value=300),
                      min_size=21, max_size=21))
def test_plan_properties(required, capacity, cached, wave_bytes, sizes):
    """Invariants for arbitrary batches, cache contents and byte caps:
    single fetch per cluster, wave bounds in clusters and in bytes, every
    pair planned exactly once, clusters in first-need order — and the
    earliest-row-first guarantee."""
    cache = ClusterCache(4)
    for cid in cached:
        cache.put(make_entry(cid))
    fetch_bytes = sizes.__getitem__
    plan = plan_batch(required, cache, capacity, wave_bytes, fetch_bytes)
    fetched = [cid for wave in plan.waves for cid in wave.fetch_cluster_ids]
    assert len(fetched) == len(set(fetched))
    assert not set(fetched) & cached
    assert all(len(w.fetch_cluster_ids) <= capacity for w in plan.waves)
    assert all(wave.fetch_cluster_ids for wave in plan.waves)
    # A wave holds its share of the cap unless it is one cluster, and
    # closes only when full or when the next miss would pass the share.
    wave_sizes = [sum(map(fetch_bytes, wave.fetch_cluster_ids))
                  for wave in plan.waves]
    for index, wave in enumerate(plan.waves):
        if wave_bytes is not None and len(wave.fetch_cluster_ids) > 1:
            assert wave_sizes[index] <= wave_bytes
        if index + 1 < len(plan.waves):
            following = plan.waves[index + 1].fetch_cluster_ids[0]
            assert len(wave.fetch_cluster_ids) == capacity or (
                wave_bytes is not None and wave_sizes[index]
                + fetch_bytes(following) > wave_bytes)
    serviced = [pair for wave in plan.waves for pair in wave.serviced]
    serviced += [(q, cid) for cid, rows in plan.clusters
                 if cid in plan.cache_hit_cluster_ids for q in rows]
    expected = {(q, c) for q, cids in enumerate(required) for c in set(cids)}
    assert set(serviced) == expected
    assert len(serviced) == len(expected)
    assert sorted(pair for cid, rows in plan.clusters
                  for pair in ((q, cid) for q in rows)) == sorted(expected)
    for wave in plan.waves:
        assert {cid for _, cid in wave.serviced} <= set(
            wave.fetch_cluster_ids)
    # Clusters in first-need order (row, then probe rank), and the
    # misses fetched in that order.
    first_need = list(dict.fromkeys(cid for cids in required
                                    for cid in cids))
    assert [cid for cid, _ in plan.clusters] == first_need
    assert fetched == [cid for cid in first_need if cid not in cached]
    # Each searched row's rank: where the cluster sits in its routes.
    assert len(plan.ranks) == len(plan.clusters)
    for (cid, rows), ranks in zip(plan.clusters, plan.ranks):
        assert ranks == tuple(list(dict.fromkeys(required[row])).index(cid)
                              for row in rows)
    # Row r is complete no later than the wave holding the last distinct
    # miss cluster rows 0..r need: the first ceil(n / capacity) waves, n
    # being how many distinct miss clusters those rows want.
    completed_in = {}
    for index, wave in enumerate(plan.waves):
        for row, _ in wave.serviced:
            completed_in[row] = index
    wanted: set[int] = set()
    for row, cluster_ids in enumerate(required):
        wanted |= set(cluster_ids) - cached
        if row in completed_in and wave_bytes is None:
            miss_waves = -(-len(wanted) // capacity)
            assert completed_in[row] <= miss_waves - 1
    # The first wave is fixed by the rows it names.
    if plan.waves:
        head = plan_batch(required[:plan.first_wave_rows], cache, capacity,
                          wave_bytes, fetch_bytes)
        assert head.waves[0].fetch_cluster_ids == (
            plan.waves[0].fetch_cluster_ids)


@settings(max_examples=30, deadline=None)
@given(required=BATCHES)
def test_plan_naive_is_one_pair_per_wave_in_row_order(required):
    """The naive baseline's schedule: nothing reordered, nothing
    deduplicated — not even a row probing one cluster twice."""
    plan = plan_naive(required)
    pairs = [(q, c) for q, cids in enumerate(required) for c in cids]
    assert [w.serviced for w in plan.waves] == [(pair,) for pair in pairs]
    assert [w.fetch_cluster_ids for w in plan.waves] == [(c,)
                                                         for _, c in pairs]
    # One search per pair, in the same order.
    assert plan.clusters == tuple((c, (q,)) for q, c in pairs)
    assert plan.ranks == tuple((rank,) for cids in required
                               for rank in range(len(cids)))
    assert plan.duplicate_requests_pruned == 0
    assert plan.cache_hit_cluster_ids == ()
