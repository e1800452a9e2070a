"""Focused unit tests for client internals: overflow replay, overlap
scheduling, filtered search, decode-cache hygiene."""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core import DHnswClient, Scheme
from repro.core.cache import CachedCluster
from repro.core.cluster_search import search_cluster_entry
from repro.errors import StaleReadError
from repro.hnsw import HnswIndex, HnswParams
from repro.layout.serializer import OverflowRecord, replay_overflow
from repro.mutation.rebuild import ShadowRebuild
from tests.serving.helpers import fetch
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


class TestClusterSearchBlock:
    """The overflow work is done once per block of queries; each row must
    come out as if it had been searched alone."""

    # The ``l2`` id is kept from when other distances were parametrized.
    @pytest.mark.parametrize("dim", [12], ids=["l2"])
    def test_block_equals_row_by_row(self, dim):
        rng = np.random.default_rng(3)
        index = HnswIndex(dim, HnswParams(m=6, ef_construction=32, seed=2))
        index.add(rng.standard_normal((60, dim)).astype(np.float32),
                  labels=list(range(100, 160)))

        def vector():
            return rng.standard_normal(dim).astype(np.float32)

        moved = vector()
        overflow = [
            OverflowRecord(500, 0, vector()),
            OverflowRecord(105, 0, vector(), tombstone=True),  # base id
            OverflowRecord(110, 0, moved),             # supersedes base id
            OverflowRecord(501, 0, vector()),
            OverflowRecord(501, 0, vector(), tombstone=True),
        ]
        entry = CachedCluster(cluster_id=0, index=index, overflow=overflow,
                              overflow_tail=5, extent_epoch=(1, 0, 0),
                              nbytes=1)
        block = rng.standard_normal((5, dim)).astype(np.float32)
        whole = search_cluster_entry(entry, block, 60, 60)
        alone = [search_cluster_entry(entry, block[row:row + 1], 60, 60)
                 for row in range(len(block))]
        assert whole.evals == sum(result.evals for result in alone)
        live = np.stack([overflow[0].vector, moved])
        for row, result in enumerate(alone):
            # A walk scores a graph node once; the live records add one
            # evaluation each.
            assert result.evals <= len(index) + len(live)
            assert np.array_equal(whole.gids[row], result.gids[0])
            assert np.array_equal(whole.dists[row], result.dists[0])
            gids = whole.gids[row].tolist()
            # ef covers the graph: every live base id, then the overflow.
            assert gids[-2:] == [500, 110]
            assert sorted(gids[:-2]) == sorted(
                set(range(100, 160)) - {105, 110})
            assert np.array_equal(
                whole.dists[row][-2:],
                index.kernel.many(block[row], live).astype(np.float64))


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

        def refetch():
            return fetch(client, [cid], doorbell=False)[cid]

        first = refetch()
        first.overflow.append(
            OverflowRecord(123456, cid,
                           np.zeros(client.meta.dim, dtype=np.float32)))
        second = refetch()
        assert all(record.global_id != 123456
                   for record in second.overflow)


class TestSearchingDerivesNothing:
    def test_searching_every_cluster_retains_only_visited_tags(
            self, built_deployment, small_dataset):
        """A decoded cluster is searched as decoded.  The parent compiled
        a second adjacency copy per searched cluster (~0.5 KB a node:
        +612 KiB here, +2.5 MiB on the spine's 40 clusters); what a search
        leaves behind now is each graph's visited tags, 8 B a node."""
        config = built_deployment.config.replace(
            cache_fraction=1.0, nprobe=built_deployment.meta.num_partitions)
        with DHnswClient(built_deployment.layout, built_deployment.meta,
                         config, name="retention",
                         cost_model=built_deployment.cost_model) as client:
            every = range(client.metadata.num_clusters)
            fetch(client, every)
            gc.collect()
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                batch = client.search_batch(small_dataset.queries, 10)
                assert batch.cache_hits == len(every)
                assert batch.clusters_fetched == 0
                del batch
                gc.collect()
                after, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert after - before < 128 * 1024


class TestDecodeRetention:
    """The decoder keeps each cluster's decoded base for as long as the
    bytes it came from are the cluster's base: across tail growth and
    across other groups' rebuilds, never across its own group's."""

    @pytest.fixture()
    def clients(self, mutable_deployment, small_config):
        reader, writer = (
            DHnswClient(mutable_deployment.layout, mutable_deployment.meta,
                        small_config, cost_model=mutable_deployment.cost_model,
                        name=name)
            for name in ("reader", "writer"))
        yield reader, writer
        reader.close()
        writer.close()

    @staticmethod
    def fetch(client, cid):
        return fetch(client, [cid], doorbell=False)[cid]

    @staticmethod
    def rebuild_group_of(writer, probe, base_gid=700_000):
        """Fill the probe's group through ``writer`` and cut it over;
        returns the group id and its member cluster ids."""
        for i in range(writer.config.overflow_capacity_records):
            writer.insert(probe + i * 1e-4, base_gid + i)
        gid = writer.metadata.clusters[writer.meta.classify(probe)].group_id
        assert ShadowRebuild(writer, gid).run()
        return gid, [cid for cid, cluster
                     in enumerate(writer.metadata.clusters)
                     if cluster.group_id == gid]

    def test_a_peers_cutover_replaces_only_its_groups_bases(
            self, clients, small_dataset):
        reader, writer = clients
        probe = small_dataset.queries[0]
        inside = reader.meta.classify(probe)
        group = reader.metadata.clusters[inside].group_id
        outside = next(cid for cid, cluster
                       in enumerate(reader.metadata.clusters)
                       if cluster.group_id != group)
        before = {cid: self.fetch(reader, cid) for cid in (inside, outside)}

        assert inside in self.rebuild_group_of(writer, probe)[1]
        assert reader.refresh_metadata()

        kept = self.fetch(reader, outside)
        assert kept.index is before[outside].index
        assert kept.extent_epoch == before[outside].extent_epoch
        moved = self.fetch(reader, inside)
        assert moved.index is not before[inside].index
        assert moved.extent_epoch != before[inside].extent_epoch
        # The rebuild folded the records into the new base.
        assert {700_000, 700_001} <= set(moved.index.labels)
        assert moved.overflow == []

    def test_tail_growth_keeps_the_base_and_shows_the_records(
            self, clients, small_dataset):
        reader, writer = clients
        probe = small_dataset.queries[0]
        cid = reader.meta.classify(probe)
        first = self.fetch(reader, cid)
        writer.insert(probe + 1e-4, 710_000)
        writer.delete(probe + 1e-4, 710_000)
        writer.insert(probe + 2e-4, 710_001)
        second = self.fetch(reader, cid)
        assert second.index is first.index
        assert second.labels is first.labels
        assert second.extent_epoch == first.extent_epoch
        assert second.overflow_tail == first.overflow_tail + 3
        assert ([(record.global_id, record.tombstone)
                 for record in second.overflow[len(first.overflow):]]
                == [(710_000, False), (710_000, True), (710_001, False)])

    def test_stale_reader_fails_before_anything_retained_is_consulted(
            self, clients, small_dataset):
        reader, writer = clients
        probe = small_dataset.queries[0]
        cid = reader.meta.classify(probe)
        self.fetch(reader, cid)
        self.rebuild_group_of(writer, probe)

        class Untouchable(dict):
            def get(self, *args):
                raise AssertionError("memo consulted on a sealed extent")

        decoder = reader.engine.decoder
        decoder._bases = Untouchable(decoder._bases)
        # Still on pre-cutover metadata: the old extent's tail is sealed.
        with pytest.raises(StaleReadError):
            self.fetch(reader, cid)

    def test_one_slot_per_cluster_whatever_the_rebuild_count(
            self, clients, small_dataset):
        reader, writer = clients
        queries = small_dataset.queries
        groups = [reader.metadata.clusters[reader.meta.classify(query)]
                  .group_id for query in queries]
        probes = [queries[0], next(query for query, group
                                   in zip(queries, groups)
                                   if group != groups[0])]
        for round_index in range(10):
            gid, _ = self.rebuild_group_of(writer, probes[round_index % 2],
                                           720_000 + 100 * round_index)
            reader.search_batch(probes[round_index % 2][None, :], 10)
            # The probe's own cluster was just searched: its slot holds
            # the epoch this cutover published, nothing older.
            cid = reader.meta.classify(probes[round_index % 2])
            base = reader.engine.decoder._bases[cid]
            assert base.extent_epoch[0] == 2 + round_index // 2
            assert (base.extent_epoch[0]
                    == reader.metadata.groups[gid].version)
            assert (len(reader.engine.decoder._bases)
                    <= reader.metadata.num_clusters)
