"""Offline build pipeline: layout written, metadata consistent."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Deployment
from repro.core import DHnswBuilder, DHnswConfig
from repro.errors import LayoutError
from repro.layout.group_layout import cluster_read_extent
from repro.layout.metadata import GlobalMetadata
from repro.layout.serializer import deserialize_cluster


class TestBuildReport:
    def test_report_totals(self, built_deployment, small_dataset):
        report = built_deployment.build_report
        assert report.num_vectors == small_dataset.num_vectors
        assert report.num_partitions == 12
        assert report.num_groups == 6
        assert report.partition_sizes.sum() == small_dataset.num_vectors
        assert report.total_blob_bytes > 0
        assert report.meta_hnsw_bytes > 0

    def test_build_traffic_recorded(self, built_deployment):
        stats = built_deployment.build_report.build_network
        # 12 cluster blobs + 1 metadata block.
        assert stats.write_ops == 13
        assert stats.bytes_written > 0

    def test_region_headroom_applied(self, built_deployment,
                                     small_config):
        report = built_deployment.build_report
        assert (report.region_capacity_bytes
                > report.total_blob_bytes * small_config.region_headroom)


class TestRemoteState:
    def test_metadata_block_readable_from_remote(self, built_deployment):
        layout = built_deployment.layout
        blob = layout.memory_node.read(layout.rkey, layout.addr(0),
                                       layout.metadata_nbytes)
        metadata = GlobalMetadata.unpack(blob)
        assert metadata.version == 1
        assert metadata.num_clusters == 12
        assert metadata.clusters == layout.metadata.clusters

    def test_metadata_nbytes_is_the_packed_size(self, small_dataset,
                                                small_config):
        """Computed from the entry counts, never by re-serializing the
        block."""
        layout = Deployment(small_dataset.vectors[:400], small_config.replace(
            num_representatives=4)).layout
        assert layout.metadata_nbytes == len(layout.metadata.pack())

    def test_every_cluster_blob_deserializable(self, built_deployment):
        layout = built_deployment.layout
        total_nodes = 0
        for cid, entry in enumerate(layout.metadata.clusters):
            blob = layout.memory_node.read(
                layout.rkey, layout.addr(entry.blob_offset),
                entry.blob_length)
            index, parsed = deserialize_cluster(blob)
            assert parsed == cid
            index.graph.check_invariants()
            total_nodes += len(index)
        assert total_nodes == built_deployment.build_report.num_vectors

    def test_overflow_areas_start_empty(self, built_deployment):
        layout = built_deployment.layout
        for group in layout.metadata.groups:
            tail = layout.memory_node.read(
                layout.rkey, layout.addr(group.overflow_offset), 8)
            assert tail == bytes(8)

    def test_extents_lie_inside_region(self, built_deployment):
        layout = built_deployment.layout
        for cid in range(layout.metadata.num_clusters):
            offset, length = cluster_read_extent(layout.metadata, cid)
            assert offset >= 0
            assert offset + length <= layout.region.length

    def test_allocator_tail_after_layout(self, built_deployment):
        layout = built_deployment.layout
        last_end = max(
            max(e.blob_offset + e.blob_length
                for e in layout.metadata.clusters),
            max(g.overflow_offset for g in layout.metadata.groups))
        assert layout.allocator.tail >= last_end


class TestBuildValidation:
    def test_empty_corpus_rejected(self):
        builder = DHnswBuilder(DHnswConfig(num_representatives=2))
        with pytest.raises(LayoutError, match="empty corpus"):
            builder.build(np.empty((0, 8), dtype=np.float32))

    def test_tiny_corpus_single_partition(self):
        builder = DHnswBuilder(DHnswConfig(num_representatives=1, seed=0))
        vectors = np.random.default_rng(0).random((10, 4)).astype(np.float32)
        meta, layout, report = builder.build(vectors)
        assert report.num_partitions == 1
        assert layout.metadata.num_groups == 1

    def test_determinism_across_builds(self, small_dataset, small_config):
        first = DHnswBuilder(small_config).build(small_dataset.vectors)
        second = DHnswBuilder(small_config).build(small_dataset.vectors)
        assert (first[2].partition_sizes.tolist()
                == second[2].partition_sizes.tolist())
        assert first[1].metadata.clusters == second[1].metadata.clusters
