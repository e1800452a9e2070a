"""Mutation-aware fsck checks: version chains, locks, leaks, orphans."""

from __future__ import annotations

import struct

from repro.core import DHnswClient, Scheme, fsck
from repro.layout.group_layout import OVERFLOW_SEALED
from repro.layout.metadata import rebuild_lock_offset

_U64 = struct.Struct("<Q")


def fresh_client(deployment, config, scheme=Scheme.DHNSW):
    return DHnswClient(deployment.layout, deployment.meta, config,
                       scheme=scheme, cost_model=deployment.cost_model)


def poke(layout, offset: int, data: bytes) -> None:
    layout.memory_node.write(layout.rkey, layout.addr(offset), data)


def findings_matching(report, text: str):
    return [finding for finding in report.findings
            if text in finding.message]


class TestVersionChain:
    def test_group_version_ahead_of_global_is_an_error(
            self, mutable_deployment, small_config, small_dataset):
        client = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[0]
        for i in range(small_config.overflow_capacity_records + 1):
            client.insert(probe + i * 1e-4, 900_000 + i)
        layout = mutable_deployment.layout
        # Rewind only the *global* version; the rebuilt group's stamp now
        # runs ahead, which a correct cutover can never produce.
        broken = layout.metadata.pack()
        poke(layout, 0, broken[:8] + _U64.pack(1) + broken[16:])
        report = fsck(layout)
        assert not report.clean
        assert findings_matching(report, "ahead of global")

    def test_held_rebuild_lock_is_a_warning(self, mutable_deployment,
                                            small_config):
        layout = mutable_deployment.layout
        poke(layout, rebuild_lock_offset(layout.metadata_nbytes, 0),
             _U64.pack(0xDEAD))
        report = fsck(layout)
        assert report.clean  # warning, not error: may be in flight
        assert findings_matching(report, "rebuild lock held")

    def test_sealed_area_in_live_metadata_is_an_error(
            self, mutable_deployment, small_config):
        layout = mutable_deployment.layout
        group = layout.metadata.groups[0]
        poke(layout, group.overflow_offset, _U64.pack(OVERFLOW_SEALED))
        report = fsck(layout)
        assert not report.clean
        assert findings_matching(report, "lost cutover")


class TestRetiredLedger:
    def test_unreclaimed_past_grace_period_is_a_leak_warning(
            self, mutable_deployment, small_config, small_dataset):
        """The leak check: an extent retired by a cutover whose grace
        period has elapsed, but which nobody ever reclaimed — a reader
        pins it, the writer rebuilds, the reader closes and no client
        observes a version afterwards."""
        writer = fresh_client(mutable_deployment, small_config)
        reader = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[0]
        reader.search(probe, 1, ef_search=16)  # registers at old epoch
        for i in range(small_config.overflow_capacity_records + 1):
            writer.insert(probe + i * 1e-4, 910_000 + i)
        log = mutable_deployment.layout.retired
        assert log.pending_bytes > 0 and not log.reclaimable()
        reader.close()
        assert log.reclaimable() == list(log.entries)
        report = fsck(mutable_deployment.layout)
        assert report.clean  # a leak loses space, not correctness
        leaks = findings_matching(report, "never reclaimed")
        assert leaks
        assert all(finding.severity == "warning" for finding in leaks)

    def test_pinned_extents_are_not_flagged(self, mutable_deployment,
                                            small_config, small_dataset):
        """An extent still inside its grace period is healthy, not a
        leak: a registered reader remains one epoch behind."""
        writer = fresh_client(mutable_deployment, small_config)
        reader = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[0]
        reader.search(probe, 1, ef_search=16)  # registers at old epoch
        for i in range(small_config.overflow_capacity_records + 1):
            writer.insert(probe + i * 1e-4, 920_000 + i)
        assert mutable_deployment.layout.retired.pending_bytes > 0
        report = fsck(mutable_deployment.layout)
        assert report.clean, report.summary()
        assert not findings_matching(report, "never reclaimed")

    def test_retired_extent_overlapping_live_layout_is_an_error(
            self, mutable_deployment, small_config):
        layout = mutable_deployment.layout
        entry = layout.metadata.clusters[0]
        layout.retired.retire(entry.blob_offset, 16, retired_version=99)
        report = fsck(layout)
        assert not report.clean
        assert findings_matching(report, "overlaps live")


class TestOrphanExtents:
    def test_clean_layout_has_no_orphans(self, mutable_deployment,
                                         small_config, small_dataset):
        client = fresh_client(mutable_deployment, small_config)
        probe = small_dataset.queries[0]
        for i in range(small_config.overflow_capacity_records + 2):
            client.insert(probe + i * 1e-4, 930_000 + i)
        report = fsck(mutable_deployment.layout)
        assert not findings_matching(report, "orphan extent")

    def test_allocation_never_published_is_an_orphan(
            self, mutable_deployment, small_config):
        """A crashed rebuild's shadow allocation — claimed from the
        allocator but referenced by nothing — is reported as lost."""
        mutable_deployment.layout.allocator.allocate(4096)
        report = fsck(mutable_deployment.layout)
        orphans = findings_matching(report, "orphan extent")
        assert orphans
        assert all(finding.severity == "warning" for finding in orphans)

    def test_eight_unnamed_bytes_are_an_orphan(self, mutable_deployment):
        """No alignment pad is 8 B wide, so 8 B nothing names is a leak
        (the sliver every rebuild used to leave behind), not slack."""
        mutable_deployment.layout.allocator.allocate(8)
        assert findings_matching(fsck(mutable_deployment.layout),
                                 "orphan extent")
