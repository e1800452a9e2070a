"""Focused unit tests for client internals: overflow replay, overlap
scheduling, filtered search, decode-cache hygiene."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DHnswClient, Scheme
from repro.core.cluster_search import replay_overflow
from repro.layout.serializer import OverflowRecord
from repro.serving import PlanExecution
from tests.serving.reference_loop import overlap_saved


def record(gid, cid=0, tombstone=False):
    return OverflowRecord(global_id=gid, cluster_id=cid,
                          vector=np.zeros(2, dtype=np.float32),
                          tombstone=tombstone)


class TestReplayOverflow:
    def test_insert_then_delete_is_dead(self):
        state = replay_overflow([record(1), record(1, tombstone=True)])
        assert state[1] is None

    def test_delete_then_insert_is_alive(self):
        state = replay_overflow([record(1, tombstone=True), record(1)])
        assert state[1] is not None

    def test_last_write_wins(self):
        fresh = OverflowRecord(1, 0, np.ones(2, dtype=np.float32))
        state = replay_overflow([record(1), fresh])
        assert state[1] is fresh

    def test_independent_ids(self):
        state = replay_overflow([record(1), record(2, tombstone=True)])
        assert state[1] is not None
        assert state[2] is None

    def test_empty(self):
        assert replay_overflow([]) == {}


class TestOverlapSaved:
    def test_fewer_than_two_waves_saves_nothing(self):
        assert overlap_saved([]) == 0.0
        assert overlap_saved([(5.0, 3.0)]) == 0.0

    def test_perfectly_balanced_waves(self):
        # fetch == process == 10: serial 40, pipelined 10+10+10 = 30.
        profiles = [(10.0, 10.0), (10.0, 10.0)]
        assert overlap_saved(profiles) == pytest.approx(10.0)

    def test_network_bound_waves(self):
        # Tiny compute: almost nothing to hide fetches behind.
        profiles = [(10.0, 1.0), (10.0, 1.0)]
        assert overlap_saved(profiles) == pytest.approx(1.0)

    def test_compute_bound_waves(self):
        # Tiny fetches: hiding them saves the full fetch time.
        profiles = [(1.0, 10.0), (1.0, 10.0)]
        assert overlap_saved(profiles) == pytest.approx(1.0)

    def test_never_negative(self):
        profiles = [(0.0, 0.0), (0.0, 0.0), (5.0, 0.0)]
        assert overlap_saved(profiles) >= 0.0


class TestFilteredSearch:
    @pytest.fixture(scope="class")
    def client(self, built_deployment, small_config):
        return DHnswClient(built_deployment.layout, built_deployment.meta,
                           small_config, scheme=Scheme.DHNSW,
                           cost_model=built_deployment.cost_model)

    def test_filter_excludes_ids(self, client, small_dataset):
        unfiltered = client.search_batch(small_dataset.queries[:5], 10,
                                         ef_search=48)
        banned = {int(result.ids[0]) for result in unfiltered.results}
        filtered = client.search_batch(
            small_dataset.queries[:5], 10, ef_search=48,
            filter_fn=lambda gid: gid not in banned)
        for result in filtered.results:
            assert banned.isdisjoint(int(x) for x in result.ids)

    def test_filter_none_is_identity(self, client, small_dataset):
        plain = client.search_batch(small_dataset.queries[:5], 5,
                                    ef_search=32)
        explicit = client.search_batch(small_dataset.queries[:5], 5,
                                       ef_search=32, filter_fn=None)
        assert plain.ids_list() == explicit.ids_list()

    def test_rejecting_everything_yields_empty(self, client,
                                               small_dataset):
        batch = client.search_batch(small_dataset.queries[:2], 5,
                                    ef_search=16,
                                    filter_fn=lambda gid: False)
        assert all(len(result.ids) == 0 for result in batch.results)

    def test_even_ids_only(self, client, small_dataset):
        batch = client.search_batch(small_dataset.queries[:3], 5,
                                    ef_search=48,
                                    filter_fn=lambda gid: gid % 2 == 0)
        for result in batch.results:
            assert all(gid % 2 == 0 for gid in result.ids.tolist())


class TestDecodeCacheHygiene:
    def test_decode_cache_entries_are_isolated(self, mutable_deployment,
                                               small_config,
                                               small_dataset):
        """Mutating a fetched entry's overflow must not leak into later
        fetches served by the decode memoization."""
        client = DHnswClient(mutable_deployment.layout,
                             mutable_deployment.meta, small_config,
                             scheme=Scheme.NAIVE,
                             cost_model=mutable_deployment.cost_model)
        cid = client.meta.classify(small_dataset.queries[0])
        fetcher = client.engine.fetcher

        def fetch():
            return fetcher.admit(*fetcher.read([cid], doorbell=False),
                                 PlanExecution())[cid]

        first = fetch()
        first.overflow.append(
            OverflowRecord(123456, cid,
                           np.zeros(client.meta.dim, dtype=np.float32)))
        second = fetch()
        assert all(record.global_id != 123456
                   for record in second.overflow)
