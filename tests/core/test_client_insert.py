"""Dynamic insertion: overflow writes, rebuilds, cross-client coherence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DHnswClient, Scheme


def fresh_client(deployment, config, scheme=Scheme.DHNSW):
    return DHnswClient(deployment.layout, deployment.meta, config,
                       scheme=scheme, cost_model=deployment.cost_model)


class TestBasicInsert:
    def test_insert_reports_location(self, mutable_deployment,
                                     small_config):
        client = fresh_client(mutable_deployment, small_config)
        vector = mutable_deployment.meta.index.graph.vector(0)
        report = client.insert(vector, global_id=50_000)
        assert report.cluster_id == 0
        assert report.overflow_slot == 0
        assert not report.triggered_rebuild

    def test_inserted_vector_found_by_search(self, mutable_deployment,
                                             small_config, small_dataset):
        client = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[3]
        client.insert(probe, global_id=60_000)
        result = client.search(probe, 1, ef_search=32)
        assert result.ids[0] == 60_000
        assert result.distances[0] == pytest.approx(0.0, abs=1e-5)

    def test_slots_advance_within_group(self, mutable_deployment,
                                        small_config, small_dataset):
        client = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[0]
        slots = [client.insert(probe + i * 1e-4, 70_000 + i).overflow_slot
                 for i in range(3)]
        assert slots == [0, 1, 2]

    def test_insert_uses_faa_and_write(self, mutable_deployment,
                                       small_config, small_dataset):
        client = fresh_client(mutable_deployment, small_config)
        before = client.node.stats.snapshot()
        client.insert(small_dataset.queries[0], 80_000)
        delta = client.node.stats.delta(before)
        assert delta.atomic_ops == 1
        assert delta.write_ops == 1


class TestCrossClientVisibility:
    def test_other_client_sees_insert_without_cached_cluster(
            self, mutable_deployment, small_config, small_dataset):
        writer = fresh_client(mutable_deployment, small_config)
        reader = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[5]
        writer.insert(probe, 90_000)
        result = reader.search(probe, 1, ef_search=32)
        assert result.ids[0] == 90_000

    def test_cached_cluster_revalidated_on_hit(self, mutable_deployment,
                                               small_config,
                                               small_dataset):
        writer = fresh_client(mutable_deployment, small_config)
        reader = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[7]
        # Warm the reader's cache with the cluster that will receive the
        # insert.
        reader.search(probe, 1, ef_search=16)
        writer.insert(probe, 91_000)
        result = reader.search(probe, 1, ef_search=32)
        assert result.ids[0] == 91_000


class TestOverflowRebuild:
    def test_filling_overflow_triggers_rebuild(self, mutable_deployment,
                                               small_config,
                                               small_dataset):
        client = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[0]
        capacity = small_config.overflow_capacity_records
        version_before = client.metadata.version
        reports = [client.insert(probe + i * 1e-4, 100_000 + i)
                   for i in range(capacity + 1)]
        assert not any(r.triggered_rebuild for r in reports[:-1])
        assert reports[-1].triggered_rebuild
        assert client.metadata.version == version_before + 1

    def test_all_vectors_survive_rebuild(self, mutable_deployment,
                                         small_config, small_dataset):
        client = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[1]
        capacity = small_config.overflow_capacity_records
        inserted = []
        for i in range(capacity + 2):
            gid = 110_000 + i
            client.insert(probe + i * 1e-4, gid)
            inserted.append(gid)
        batch = client.search_batch(
            np.stack([probe + i * 1e-4 for i in range(len(inserted))]),
            1, ef_search=64)
        found = {result.ids[0] for result in batch.results}
        assert found == set(inserted)

    def test_rebuild_relocates_group(self, mutable_deployment,
                                     small_config, small_dataset):
        client = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[0]
        cid = client.meta.classify(probe)
        offset_before = client.metadata.clusters[cid].blob_offset
        for i in range(small_config.overflow_capacity_records + 1):
            client.insert(probe + i * 1e-4, 120_000 + i)
        assert client.metadata.clusters[cid].blob_offset != offset_before
        assert mutable_deployment.layout.allocator.dead_bytes > 0

    def test_other_clients_recover_after_rebuild(self, mutable_deployment,
                                                 small_config,
                                                 small_dataset):
        writer = fresh_client(mutable_deployment, small_config)
        reader = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[4]
        reader.search(probe, 1, ef_search=16)  # cache soon-stale offsets
        for i in range(small_config.overflow_capacity_records + 1):
            writer.insert(probe + i * 1e-4, 130_000 + i)
        # Reader must detect the version bump, drop stale entries and
        # find everything, including post-rebuild records.
        result = reader.search(probe, 1, ef_search=64)
        assert result.ids[0] == 130_000
        assert reader.metadata.version == writer.metadata.version

    def test_rebuild_preserves_base_corpus(self, mutable_deployment,
                                           small_config, small_dataset):
        client = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[0]
        base_hit = client.search(small_dataset.vectors[0], 1,
                                 ef_search=32)
        for i in range(small_config.overflow_capacity_records + 1):
            client.insert(probe + i * 1e-4, 140_000 + i)
        again = client.search(small_dataset.vectors[0], 1, ef_search=32)
        assert again.ids[0] == base_hit.ids[0] == 0
