"""Layout consistency checker: clean layouts pass, corruption is found."""

from __future__ import annotations

import struct

from repro.core import fsck
from repro.core.fsck import Finding
from repro.layout.group_layout import OVERFLOW_TAIL_BYTES
from repro.layout.serializer import deserialize_cluster, serialize_cluster


def corrupt(layout, offset: int, data: bytes) -> None:
    layout.memory_node.write(layout.rkey, layout.addr(offset), data)


class TestCleanLayouts:
    def test_fresh_build_is_clean(self, built_deployment,
                                  small_dataset):
        report = fsck(built_deployment.layout)
        assert report.clean, report.summary()
        assert report.clusters_checked == 12
        assert report.groups_checked == 6
        assert report.base_vectors == small_dataset.num_vectors
        assert report.live_overflow_records == 0

    def test_clean_after_inserts_and_rebuild(self, mutable_deployment,
                                             small_config, small_dataset):
        client = mutable_deployment.client(0)
        probe = small_dataset.queries[0]
        for i in range(small_config.overflow_capacity_records + 2):
            client.insert(probe + i * 1e-4, 300_000 + i)
        report = fsck(mutable_deployment.layout)
        assert report.clean, report.summary()
        assert report.live_overflow_records >= 1
        assert (report.base_vectors + report.live_overflow_records
                == small_dataset.num_vectors
                + small_config.overflow_capacity_records + 2)

    def test_counts_tombstones(self, mutable_deployment, small_config,
                               small_dataset):
        client = mutable_deployment.client(0)
        client.delete(small_dataset.vectors[3], global_id=3)
        report = fsck(mutable_deployment.layout)
        assert report.clean
        assert report.tombstones == 1


class TestCorruptionDetection:
    def test_smashed_metadata_magic(self, mutable_deployment):
        corrupt(mutable_deployment.layout, 0, b"ZZZZ")
        report = fsck(mutable_deployment.layout)
        assert not report.clean
        assert any(finding.location == "metadata"
                   for finding in report.findings)

    def test_smashed_cluster_blob(self, mutable_deployment):
        layout = mutable_deployment.layout
        entry = layout.metadata.clusters[4]
        corrupt(layout, entry.blob_offset, b"\x00" * 16)
        report = fsck(layout)
        assert not report.clean
        assert any("cluster 4" == finding.location
                   for finding in report.findings)

    def test_non_finite_vector_in_blob(self, mutable_deployment):
        """A NaN already in the pool is damage, though it parses."""
        layout = mutable_deployment.layout
        entry = layout.metadata.clusters[0]
        last_component = entry.blob_offset + entry.blob_length - 4
        corrupt(layout, last_component, struct.pack("<f", float("nan")))
        report = fsck(layout)
        assert not report.clean
        (finding,) = [finding for finding in report.findings
                      if finding.severity == "error"]
        assert finding.location == "cluster 0"
        assert "non-finite" in finding.message

    def test_wrong_cluster_id_in_blob(self, mutable_deployment):
        layout = mutable_deployment.layout
        source = layout.metadata.clusters[2]
        target = layout.metadata.clusters[3]
        blob = layout.memory_node.read(layout.rkey,
                                       layout.addr(source.blob_offset),
                                       min(source.blob_length,
                                           target.blob_length))
        # Copy cluster 2's bytes over cluster 3's blob prefix: id
        # mismatch (and likely duplicate labels).
        corrupt(layout, target.blob_offset, blob)
        report = fsck(layout)
        assert not report.clean

    def test_stranded_node_is_a_warning(self, mutable_deployment):
        """A node no layer-0 walk from the entry point meets is legal
        HNSW — reported, never an error."""
        layout = mutable_deployment.layout
        entry = layout.metadata.clusters[4]
        index, cluster_id = deserialize_cluster(layout.memory_node.read(
            layout.rkey, layout.addr(entry.blob_offset), entry.blob_length))
        graph = index.graph
        stranded = next(node for node in range(len(graph))
                        if graph.level_of(node) == 0)
        # Point every in-edge somewhere else: same blob length.
        for node, layers in enumerate(graph.adjacency):
            if stranded in layers[0]:
                layers[0][layers[0].index(stranded)] = next(
                    spare for spare in range(len(graph))
                    if spare not in (node, stranded, *layers[0]))
        corrupt(layout, entry.blob_offset,
                serialize_cluster(index, cluster_id))
        report = fsck(layout)
        assert report.clean
        assert [(finding.severity, finding.location)
                for finding in report.findings] == [("warning", "cluster 4")]
        assert (f"1 of {len(index)} nodes unreachable"
                in report.findings[0].message)

    def test_torn_tail_counter_flagged(self, mutable_deployment):
        layout = mutable_deployment.layout
        group = layout.metadata.groups[1]
        capacity = group.capacity_records
        corrupt(layout, group.overflow_offset,
                struct.pack("<Q", capacity + 5))
        report = fsck(layout)
        assert any("tail counter" in finding.message
                   for finding in report.findings)

    def test_foreign_cluster_record_flagged(self, mutable_deployment,
                                            small_dataset):
        from repro.layout.serializer import (
            OverflowRecord,
            pack_overflow_record,
        )
        layout = mutable_deployment.layout
        group = layout.metadata.groups[0]
        # Group 0 holds clusters 0 and 1; write a record claiming
        # cluster 7 and bump the tail.
        record = OverflowRecord(1, 7, small_dataset.vectors[0])
        corrupt(layout, group.overflow_offset + OVERFLOW_TAIL_BYTES,
                pack_overflow_record(record))
        corrupt(layout, group.overflow_offset, struct.pack("<Q", 1))
        report = fsck(layout)
        assert any("not a member" in finding.message
                   for finding in report.findings)


    def test_blob_detached_from_its_overflow_area_flagged(
            self, mutable_deployment):
        """The layout invariant: a member whose blob no longer touches its
        group's area has an extent full of other clusters' bytes."""
        import dataclasses

        from repro.layout.metadata import GlobalMetadata
        layout = mutable_deployment.layout
        metadata = layout.metadata
        entry = metadata.clusters[1]
        blob = bytes(layout.memory_node.read(
            layout.rkey, layout.addr(entry.blob_offset), entry.blob_length))
        moved = layout.allocator.allocate(entry.blob_length)
        corrupt(layout, moved, blob)
        clusters = list(metadata.clusters)
        clusters[1] = dataclasses.replace(entry, blob_offset=moved)
        corrupt(layout, 0, GlobalMetadata(
            version=metadata.version, dim=metadata.dim,
            overflow_capacity_records=metadata.overflow_capacity_records,
            clusters=clusters, groups=metadata.groups).pack())
        report = fsck(layout)
        assert not report.clean
        assert any(finding.location == "cluster 1"
                   and "not contiguous" in finding.message
                   for finding in report.findings)


class TestFindingFormat:
    def test_str_includes_severity_and_location(self):
        finding = Finding("error", "cluster 2", "boom")
        assert str(finding) == "[error] cluster 2: boom"

    def test_summary_mentions_status(self, built_deployment):
        summary = fsck(built_deployment.layout).summary()
        assert "CLEAN" in summary
