"""One write protocol: ``insert``, ``delete`` and ``insert_batch`` are the
same reserve -> write -> rebuild loop over one row or many."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Deployment
from repro.core import DHnswClient, fsck
from repro.errors import OverflowFullError
from repro.mutation import writer as writer_module


def fresh_client(deployment, config):
    return DHnswClient(deployment.layout, deployment.meta, config,
                       cost_model=deployment.cost_model)


def region_bytes(deployment) -> bytes:
    layout = deployment.layout
    return bytes(layout.memory_node.read(layout.rkey, layout.addr(0),
                                         layout.region.length))


def fill_group(client, probe, base_gid):
    """Fill the overflow of ``probe``'s group exactly; returns its id."""
    for i in range(client.config.overflow_capacity_records):
        client.insert(probe + i * 1e-4, base_gid + i)
    return client.metadata.clusters[client.meta.classify(probe)].group_id


class TestOneRowIsABatchOfOne:
    def test_singles_and_one_batch_leave_identical_regions(
            self, small_dataset, small_config):
        """Same slots, same records, same tail words — byte for byte."""
        # Rows for several groups, interleaved, none past capacity.
        vectors = np.stack([small_dataset.queries[i % 5] + i * 1e-4
                            for i in range(10)])
        ids = list(range(800_000, 800_010))
        singles = Deployment(small_dataset.vectors, small_config)
        batched = Deployment(small_dataset.vectors, small_config)
        assert region_bytes(singles) == region_bytes(batched)
        one = fresh_client(singles, small_config)
        many = fresh_client(batched, small_config)
        single_reports = [one.insert(vector, gid)
                          for vector, gid in zip(vectors, ids)]
        assert many.insert_batch(vectors, ids) == single_reports
        assert len({r.cluster_id for r in single_reports}) > 1
        assert one.mutation.stats.rebuilds_led == 0
        assert region_bytes(singles) == region_bytes(batched)

    def test_insert_and_batch_of_one_cost_the_same(
            self, small_dataset, small_config):
        """Same verbs, same counters, same trace stages: a flush of one
        record is a plain WRITE, never a doorbell ring."""
        vector = small_dataset.queries[3] + 0.01
        deltas, stages = [], []
        for write in (lambda c: c.insert(vector, 810_000),
                      lambda c: c.insert_batch(vector[None, :], [810_000])):
            client = fresh_client(
                Deployment(small_dataset.vectors, small_config),
                small_config)
            before = client.node.stats.snapshot()
            write(client)
            deltas.append(client.node.stats.delta(before))
            stages.append([(stage.name, stage.calls, stage.sim_us)
                           for stage in client.mutation.last_trace.report()])
        assert deltas[0] == deltas[1]
        assert deltas[0].write_ops == 1 and deltas[0].doorbell_batches == 0
        assert stages[0] == stages[1]
        assert [name for name, _, _ in stages[0]] == [
            "classify", "reserve", "write"]


class TestDeleteRunsTheSameLoop:
    def test_delete_meeting_a_full_overflow_leads_the_rebuild(
            self, mutable_deployment, small_config, small_dataset):
        client = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[0]
        gid = fill_group(client, probe, 820_000)
        version = client.metadata.groups[gid].version
        report = client.delete(probe, 820_000)
        assert report.triggered_rebuild
        assert client.mutation.stats.rebuilds_led == 1
        assert client.mutation.stats.deletes == 1
        assert client.metadata.groups[gid].version == version + 1
        # The tombstone is the relocated area's first record and the id
        # stays gone: for this client, for a cold one, and after the next
        # rebuild folds the tombstone away.
        assert report.overflow_slot == 0
        reader = fresh_client(mutable_deployment, small_config)
        for searcher in (client, reader):
            assert 820_000 not in searcher.search(probe, 5,
                                                  ef_search=48).ids
        assert client.mutation.rebuild_group(gid)
        assert 820_000 not in reader.search(probe, 5, ef_search=48).ids
        assert fsck(mutable_deployment.layout).clean


class TestRetryBound:
    @pytest.mark.parametrize("rows", [1, 3])
    def test_exhausted_bound_raises_after_exactly_the_limit(
            self, mutable_deployment, small_config, small_dataset,
            monkeypatch, rows):
        """Another writer holds the group's rebuild forever: both entries
        stall ``_RETRY_LIMIT`` times — one bound, not two — then raise."""
        client = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[0]
        gid = fill_group(client, probe, 830_000)
        yields = []
        monkeypatch.setattr(client.mutation, "rebuild_group",
                            lambda group_id, trace=None:
                            yields.append(group_id))  # None: not led
        vectors = np.stack([probe + 0.01 + i * 1e-4 for i in range(rows)])
        ids = list(range(831_000, 831_000 + rows))
        faa_before = client.node.stats.atomic_ops
        with pytest.raises(OverflowFullError) as raised:
            if rows == 1:
                client.insert(vectors[0], ids[0])
            else:
                client.insert_batch(vectors, ids)
        assert yields == [gid] * writer_module._RETRY_LIMIT
        assert raised.value.group_id == gid
        # Every stall is one reservation rolled back in full.
        assert (client.node.stats.atomic_ops - faa_before
                == 2 * writer_module._RETRY_LIMIT)
        assert fsck(mutable_deployment.layout).clean
