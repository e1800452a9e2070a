"""Tombstone deletes: visibility, revival, reclamation at rebuild."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DHnswClient, Scheme
from tests.serving.helpers import fetch


def fresh_client(deployment, config, scheme=Scheme.DHNSW):
    return DHnswClient(deployment.layout, deployment.meta, config,
                       scheme=scheme, cost_model=deployment.cost_model)


class TestDeleteVisibility:
    def test_deleted_base_vector_disappears(self, mutable_deployment,
                                            small_config, small_dataset):
        client = fresh_client(mutable_deployment, small_config)
        target = small_dataset.vectors[17]
        assert client.search(target, 1, ef_search=32).ids[0] == 17
        client.delete(target, global_id=17)
        result = client.search(target, 1, ef_search=32)
        assert result.ids[0] != 17

    def test_deleted_inserted_vector_disappears(self, mutable_deployment,
                                                small_config,
                                                small_dataset):
        client = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[3]
        client.insert(probe, 40_000)
        assert client.search(probe, 1, ef_search=32).ids[0] == 40_000
        client.delete(probe, 40_000)
        assert client.search(probe, 1, ef_search=32).ids[0] != 40_000

    def test_delete_visible_to_other_clients(self, mutable_deployment,
                                             small_config, small_dataset):
        writer = fresh_client(mutable_deployment, small_config)
        reader = fresh_client(mutable_deployment, small_config)
        target = small_dataset.vectors[5]
        reader.search(target, 1, ef_search=16)  # warm reader's cache
        writer.delete(target, global_id=5)
        assert reader.search(target, 1, ef_search=32).ids[0] != 5

    def test_reinsert_after_delete_revives(self, mutable_deployment,
                                           small_config, small_dataset):
        client = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[6]
        client.insert(probe, 41_000)
        client.delete(probe, 41_000)
        client.insert(probe, 41_000)
        assert client.search(probe, 1, ef_search=32).ids[0] == 41_000

    def test_delete_costs_like_insert(self, mutable_deployment,
                                      small_config, small_dataset):
        client = fresh_client(mutable_deployment, small_config)
        before = client.node.stats.snapshot()
        client.delete(small_dataset.vectors[9], global_id=9)
        delta = client.node.stats.delta(before)
        assert delta.atomic_ops == 1
        assert delta.write_ops == 1

    def test_delete_never_corrupts_other_results(self, mutable_deployment,
                                                 small_config,
                                                 small_dataset):
        client = fresh_client(mutable_deployment, small_config)
        wanted = client.search(small_dataset.queries[0], 10,
                               ef_search=48).ids.tolist()
        victim = wanted[0]
        client.delete(small_dataset.vectors[victim], global_id=victim)
        after = client.search(small_dataset.queries[0], 10,
                              ef_search=48).ids.tolist()
        assert victim not in after
        # Remaining neighbours unchanged (order may shift by one slot).
        assert set(wanted[1:]).issubset(set(after) | {victim})


class TestDeleteReclamation:
    def test_rebuild_drops_tombstoned_base_vectors(self, mutable_deployment,
                                                   small_config,
                                                   small_dataset):
        client = fresh_client(mutable_deployment, small_config)
        target = small_dataset.vectors[17]
        client.delete(target, global_id=17)
        cid = client.meta.classify(target)
        # Fill the overflow to force the rebuild.
        for i in range(small_config.overflow_capacity_records):
            client.insert(target + (i + 1) * 1e-3, 42_000 + i)
        # After the rebuild the base graph no longer contains id 17.
        entry = fetch(client, [cid], doorbell=False)[cid]
        assert 17 not in entry.index.labels
        assert all(not record.tombstone for record in entry.overflow)
        assert client.search(target, 1, ef_search=32).ids[0] != 17

    def test_rebuild_keeps_live_overflow(self, mutable_deployment,
                                         small_config, small_dataset):
        client = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[8]
        client.insert(probe, 43_000)
        client.delete(probe, 43_000)
        client.insert(probe, 43_001)
        for i in range(small_config.overflow_capacity_records):
            client.insert(probe + (i + 1) * 1e-3, 44_000 + i)
        result = client.search(probe, 2, ef_search=48)
        assert result.ids[0] == 43_001
        assert 43_000 not in result.ids


class TestBatchInsert:
    def test_batch_matches_singles(self, mutable_deployment, small_config,
                                   small_dataset):
        client = fresh_client(mutable_deployment, small_config)
        vectors = small_dataset.queries[:6]
        reports = client.insert_batch(vectors, list(range(45_000, 45_006)))
        assert len(reports) == 6
        for row, report in enumerate(reports):
            assert report.global_id == 45_000 + row
            got = client.search(vectors[row], 1, ef_search=32)
            assert got.ids[0] == report.global_id

    def test_batch_shares_faa_per_group(self, mutable_deployment,
                                        small_config, small_dataset):
        client = fresh_client(mutable_deployment, small_config)
        # Six near-identical vectors -> same cluster -> one group.
        vectors = np.stack([small_dataset.queries[0] + i * 1e-5
                            for i in range(6)])
        before = client.node.stats.snapshot()
        client.insert_batch(vectors, list(range(46_000, 46_006)))
        delta = client.node.stats.delta(before)
        assert delta.atomic_ops == 1          # one FAA for the whole run
        assert delta.doorbell_batches == 1    # records in one doorbell

    def test_batch_slots_consecutive_within_group(self, mutable_deployment,
                                                  small_config,
                                                  small_dataset):
        client = fresh_client(mutable_deployment, small_config)
        vectors = np.stack([small_dataset.queries[1] + i * 1e-5
                            for i in range(4)])
        reports = client.insert_batch(vectors,
                                      list(range(47_000, 47_004)))
        slots = [report.overflow_slot for report in reports]
        assert slots == list(range(slots[0], slots[0] + 4))

    def test_batch_triggers_rebuild_when_full(self, mutable_deployment,
                                              small_config, small_dataset):
        client = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[2]
        capacity = small_config.overflow_capacity_records
        for i in range(capacity):
            client.insert(probe + i * 1e-4, 48_000 + i)
        reports = client.insert_batch(
            np.stack([probe + (capacity + i) * 1e-4 for i in range(2)]),
            [48_500, 48_501])
        assert any(report.triggered_rebuild for report in reports)
        assert client.search(probe + capacity * 1e-4, 1,
                             ef_search=48).ids[0] == 48_500

    def test_batch_id_count_mismatch(self, mutable_deployment,
                                     small_config, small_dataset):
        client = fresh_client(mutable_deployment, small_config)
        with pytest.raises(ValueError, match="ids"):
            client.insert_batch(small_dataset.queries[:3], [1, 2])

    def test_no_doorbell_scheme_writes_individually(self,
                                                    mutable_deployment,
                                                    small_config,
                                                    small_dataset):
        client = fresh_client(mutable_deployment, small_config,
                              scheme=Scheme.NO_DOORBELL)
        vectors = np.stack([small_dataset.queries[4] + i * 1e-5
                            for i in range(3)])
        before = client.node.stats.snapshot()
        client.insert_batch(vectors, [49_000, 49_001, 49_002])
        delta = client.node.stats.delta(before)
        assert delta.doorbell_batches == 0
        assert delta.write_ops == 3
