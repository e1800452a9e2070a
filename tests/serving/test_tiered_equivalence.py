"""Tiered serving gates: layout byte-identity with the tier off,
deterministic cold extents, and answer equivalence of the cold path.

The tentpole promise is that ``cold_tier="off"`` is *exactly* today's
engine (same bytes on the region, same answers, same ledgers) and that
the cold path degrades quality only within the rerank guarantee.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Deployment
from repro.core import DHnswConfig, DHnswClient
from repro.core.merge import TopKMerger
from repro.datasets import exact_knn
from repro.datasets.synthetic import make_clustered
from repro.errors import StaleReadError
from repro.layout.group_layout import cluster_read_extent
from repro.metrics import recall_at_k


def make_world(seed=21):
    rng = np.random.default_rng(seed)
    corpus = make_clustered(2400, 24, num_clusters=12, cluster_std=0.05,
                            rng=rng)
    queries = make_clustered(48, 24, num_clusters=12, cluster_std=0.05,
                             rng=rng)
    return corpus, queries, exact_knn(corpus, queries, 10)


def base_config(**overrides):
    return DHnswConfig(num_representatives=12, nprobe=4, ef_meta=24,
                       cache_fraction=0.25, overflow_capacity_records=8,
                       seed=13, **overrides)


def read_cluster_blobs(deployment):
    layout = deployment.layout
    node = deployment.memory_node
    blobs = []
    metadata = layout.metadata
    for cid in range(len(metadata.clusters)):
        offset, length = cluster_read_extent(metadata, cid)
        blobs.append(bytes(node.read(layout.rkey, layout.addr(offset),
                                     length)))
    return blobs


def read_cold_sections(deployment):
    layout = deployment.layout
    node = deployment.memory_node
    cold = layout.metadata.cold
    assert cold is not None
    sections = [bytes(node.read(layout.rkey,
                                layout.addr(cold.codebook_offset),
                                cold.codebook_length))]
    for extent in cold.extents:
        sections.append(bytes(node.read(layout.rkey,
                                        layout.addr(extent.offset),
                                        extent.length)))
    return sections


@pytest.fixture(scope="module")
def world():
    return make_world()


class TestOffModeIdentity:
    def test_base_extents_byte_identical_across_cold_tiers(self, world):
        """Turning the tier on must not perturb a single byte of the
        full-precision cluster blobs (the hot path reads them as-is)."""
        corpus, _, _ = world
        off = Deployment(corpus, base_config(cold_tier="off"),
                         simulate_link_contention=False)
        pq = Deployment(corpus, base_config(cold_tier="pq"),
                        simulate_link_contention=False)
        assert read_cluster_blobs(off) == read_cluster_blobs(pq)
        assert off.layout.metadata.cold is None
        assert pq.layout.metadata.cold is not None

    def test_off_client_has_no_tier_machinery(self, world):
        corpus, queries, _ = world
        deployment = Deployment(corpus, base_config(cold_tier="off"),
                                simulate_link_contention=False)
        client = deployment.client(0)
        assert client.tier_store is None
        result = client.search_batch(queries[:8], k=10)
        assert result.cold_clusters_served == 0


class TestColdBuildDeterminism:
    def test_rebuilt_cold_sections_byte_identical(self, world):
        """Seeded k-means on a strided sample: two builds of the same
        corpus produce byte-identical codebooks and cold extents."""
        corpus, _, _ = world
        first = Deployment(corpus, base_config(cold_tier="pq"),
                           simulate_link_contention=False)
        second = Deployment(corpus, base_config(cold_tier="pq"),
                            simulate_link_contention=False)
        assert read_cold_sections(first) == read_cold_sections(second)


class TestColdServing:
    @pytest.fixture(scope="class")
    def tiered_world(self):
        corpus, queries, truth = make_world()
        deployment = Deployment(corpus, base_config(cold_tier="pq"),
                                simulate_link_contention=False)
        return corpus, queries, truth, deployment

    def all_cold_client(self, deployment, name, **overrides):
        # Budget 0: nothing ever fits the hot tier, every cluster serves
        # from its cold extent.
        config = deployment.config.replace(hot_tier_budget_bytes=0,
                                           **overrides)
        return DHnswClient(deployment.layout, deployment.meta, config,
                           cost_model=deployment.effective_cost_model,
                           name=name)

    def test_everything_served_cold_under_zero_budget(self, tiered_world):
        _, queries, _, deployment = tiered_world
        client = self.all_cold_client(deployment, "all-cold")
        result = client.search_batch(queries, k=10)
        assert result.cold_clusters_served > 0
        assert result.clusters_fetched == 0
        assert result.cache_streamed == 0
        assert len(client.cache) == 0 and client.cache.cached_bytes == 0

    def test_cold_recall_within_rerank_guarantee(self, tiered_world):
        _, queries, truth, deployment = tiered_world
        hot = deployment.client(0)
        cold = self.all_cold_client(deployment, "recall-cold")
        hot_recall = recall_at_k(
            hot.search_batch(queries, k=10).ids_list(), truth, 10)
        cold_recall = recall_at_k(
            cold.search_batch(queries, k=10).ids_list(), truth, 10)
        assert cold_recall >= 0.95 * hot_recall

    @pytest.mark.parametrize("pipeline", [False, True],
                             ids=["serial", "pipelined"])
    def test_cold_answers_identical_across_workers(self, tiered_world,
                                                   pipeline):
        _, queries, _, deployment = tiered_world
        reference = None
        for workers in (1, 4):
            client = self.all_cold_client(
                deployment, f"det-{pipeline}-{workers}",
                pipeline_waves=pipeline, search_workers=workers)
            try:
                result = client.search_batch(queries, k=10)
            finally:
                client.close()
            answers = [(r.ids.tolist(), r.distances.tolist())
                       for r in result.results]
            if reference is None:
                reference = answers
            else:
                assert answers == reference

    def test_cold_serve_observes_inserts(self, tiered_world):
        corpus, _, _, _ = tiered_world
        # Private deployment: this test mutates overflow areas.
        deployment = Deployment(corpus, base_config(cold_tier="pq"),
                                num_compute_instances=2,
                                simulate_link_contention=False)
        writer = deployment.client(0)
        probe = corpus[5] + np.float32(1e-4)
        writer.insert(probe, 9_000_001)
        reader = self.all_cold_client(deployment, "cold-reader")
        result = reader.search_batch(probe[None, :], k=1)
        assert result.cold_clusters_served > 0
        assert result.results[0].ids[0] == 9_000_001

    def test_cold_serve_observes_deletes(self, tiered_world):
        corpus, _, _, _ = tiered_world
        deployment = Deployment(corpus, base_config(cold_tier="pq"),
                                num_compute_instances=2,
                                simulate_link_contention=False)
        writer = deployment.client(0)
        probe = corpus[5] + np.float32(1e-4)
        writer.insert(probe, 9_000_002)
        writer.delete(probe, 9_000_002)
        reader = self.all_cold_client(deployment, "cold-deleter")
        result = reader.search_batch(probe[None, :], k=1)
        assert result.results[0].ids[0] != 9_000_002

    def cutover_world(self, corpus):
        """A cold reader pinned to the current epoch, and a peer whose six
        inserts overflow a 4-slot area: the fifth leads a rebuild, and its
        cutover seals the old tail at ``OVERFLOW_SEALED + 4``."""
        deployment = Deployment(
            corpus, base_config(cold_tier="pq").replace(
                overflow_capacity_records=4),
            num_compute_instances=2, simulate_link_contention=False)
        reader = self.all_cold_client(deployment, "pre-cutover-reader")
        probe = corpus[5] + np.float32(1e-4)
        reader.search_batch(probe[None, :], k=1)
        writer = deployment.client(0)
        late = [(probe + np.float32(i * 1e-5), 9_100_000 + i)
                for i in range(6)]

        def peer_writes():
            for vector, global_id in late:
                writer.insert(vector, global_id)

        return reader, peer_writes, late[-1]

    def test_cold_probe_of_sealed_group_is_a_stale_read(self, tiered_world):
        """The sealed bit on the cold path: a reader on the pre-cutover
        metadata must not take the sealed word for a full live area and
        serve the retired records."""
        corpus, _, _, _ = tiered_world
        reader, peer_writes, (last_vector, _) = self.cutover_world(corpus)
        peer_writes()
        assert reader.metadata.version < reader.layout.metadata.version
        cid = reader.meta.classify(last_vector)
        with pytest.raises(StaleReadError):
            reader.tier_store.execute_cold(
                {cid: [0]}, last_vector[None, :], TopKMerger(1, 1), 1)

    def test_cutover_during_cold_batch_answers_from_new_epoch(
            self, tiered_world):
        corpus, _, _, _ = tiered_world
        reader, peer_writes, (last_vector, last_id) = self.cutover_world(
            corpus)
        read_batch = reader.transport.read_batch

        def cutover_then_read(descriptors, doorbell=True):
            # One-shot: the peer's cutover lands between this batch's
            # metadata refresh and its first cold READ.
            reader.transport.read_batch = read_batch
            peer_writes()
            return read_batch(descriptors, doorbell=doorbell)

        reader.transport.read_batch = cutover_then_read
        result = reader.search_batch(last_vector[None, :], k=1)
        assert reader.transport.read_batch is read_batch
        assert reader.metadata.version == reader.layout.metadata.version
        # Written after the cutover, so only the new epoch holds it.
        assert result.results[0].ids[0] == last_id

    def test_promotion_moves_cluster_to_hot_path(self, tiered_world):
        """Promotion is admission: a cluster worth admitting is fetched
        hot and admitted in the batch that first needs it, and hits in
        the next; one the cache would not admit is served cold."""
        _, queries, _, deployment = tiered_world
        client = DHnswClient(deployment.layout, deployment.meta,
                             deployment.config,
                             cost_model=deployment.effective_cost_model,
                             name="promoter")
        first = client.search_batch(queries[:8], k=10)
        assert first.clusters_fetched > 0 and first.cache_hits == 0
        assert first.cache_streamed == 0
        admitted = {cid for cid in range(len(client.metadata.clusters))
                    if cid in client.cache}
        assert len(admitted) == first.clusters_fetched
        # The cache holds 3 of 12 clusters: the rest of what the batch
        # probed was served cold rather than fetched and streamed.
        assert first.cold_clusters_served > 0
        second = client.search_batch(queries[:8], k=10)
        assert second.clusters_fetched == 0
        assert second.cache_hits == len(admitted)
