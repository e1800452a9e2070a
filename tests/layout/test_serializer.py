"""Cluster blob and overflow-record serialization round-trips."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.hnsw import HnswIndex, HnswParams
from repro.layout.serializer import (
    OverflowRecord,
    cluster_blob_split,
    deserialize_cluster,
    overflow_record_size,
    pack_overflow_record,
    serialize_cluster,
    serialized_cluster_size,
    unpack_overflow_records,
)
from tests.hnsw.reference_build import serialize_cluster_reference


def build_index(count: int, dim: int, seed: int = 0,
                label_base: int = 0) -> HnswIndex:
    generator = np.random.default_rng(seed)
    index = HnswIndex(dim, HnswParams(m=6, ef_construction=30, seed=seed))
    if count:
        index.add(generator.standard_normal((count, dim)).astype(np.float32),
                  labels=list(range(label_base, label_base + count)))
    return index


class TestClusterRoundtrip:
    def test_structure_identical(self):
        original = build_index(120, 12, seed=3, label_base=500)
        blob = serialize_cluster(original, cluster_id=7)
        restored, cid = deserialize_cluster(blob)
        assert cid == 7
        assert len(restored) == 120
        assert restored.labels == original.labels
        assert restored.graph.adjacency == original.graph.adjacency
        assert restored.graph.entry_point == original.graph.entry_point
        assert restored.graph.max_level == original.graph.max_level
        np.testing.assert_array_equal(restored.graph.vectors,
                                      original.graph.vectors)

    def test_restored_index_answers_identically(self):
        original = build_index(200, 8, seed=1)
        restored, _ = deserialize_cluster(serialize_cluster(original, 0))
        generator = np.random.default_rng(9)
        for query in generator.standard_normal((10, 8)).astype(np.float32):
            original_labels, _ = original.search(query, 5, ef=32)
            restored_labels, _ = restored.search(query, 5, ef=32)
            np.testing.assert_array_equal(original_labels, restored_labels)

    def test_restored_invariants(self):
        original = build_index(80, 6, seed=2)
        restored, _ = deserialize_cluster(serialize_cluster(original, 0))
        restored.graph.check_invariants()

    def test_empty_cluster(self):
        empty = build_index(0, 16)
        restored, cid = deserialize_cluster(serialize_cluster(empty, 3))
        assert cid == 3
        assert len(restored) == 0
        assert restored.graph.entry_point is None

    def test_single_node_cluster(self):
        single = build_index(1, 4, label_base=42)
        restored, _ = deserialize_cluster(serialize_cluster(single, 0))
        assert restored.labels == [42]

    @settings(max_examples=15, deadline=None)
    @given(count=st.integers(min_value=0, max_value=50),
           dim=st.integers(min_value=1, max_value=24),
           seed=st.integers(min_value=0, max_value=5))
    def test_roundtrip_property(self, count, dim, seed):
        original = build_index(count, dim, seed=seed)
        restored, _ = deserialize_cluster(serialize_cluster(original, 0))
        assert restored.labels == original.labels
        assert restored.graph.adjacency == original.graph.adjacency


class TestZeroCopySerializer:
    """The buffer-view writer matches the reference struct packer."""

    @pytest.mark.parametrize("count,dim,seed", [(0, 4, 0), (1, 4, 1),
                                                (120, 12, 3), (200, 8, 1)])
    def test_bytes_identical_to_reference(self, count, dim, seed):
        index = build_index(count, dim, seed=seed, label_base=1000)
        fast = serialize_cluster(index, cluster_id=9)
        reference = serialize_cluster_reference(index, cluster_id=9)
        assert fast == reference

    @pytest.mark.parametrize("count,dim", [(0, 4), (1, 6), (150, 10)])
    def test_size_formula_exact(self, count, dim):
        index = build_index(count, dim, seed=5)
        assert serialized_cluster_size(index) == \
            len(serialize_cluster(index, cluster_id=0))

    @settings(max_examples=15, deadline=None)
    @given(count=st.integers(min_value=0, max_value=40),
           dim=st.integers(min_value=2, max_value=16),
           seed=st.integers(min_value=0, max_value=5))
    def test_equivalence_property(self, count, dim, seed):
        index = build_index(count, dim, seed=seed)
        blob = serialize_cluster(index, cluster_id=count)
        assert blob == serialize_cluster_reference(index, cluster_id=count)
        assert len(blob) == serialized_cluster_size(index)


class TestClusterErrors:
    def test_bad_magic(self):
        blob = serialize_cluster(build_index(5, 4), 0)
        corrupted = b"XXXX" + blob[4:]
        with pytest.raises(SerializationError, match="bad magic"):
            deserialize_cluster(corrupted)

    def test_truncated_header(self):
        with pytest.raises(SerializationError, match="shorter than header"):
            deserialize_cluster(b"DHN1")

    def test_truncated_body(self):
        blob = serialize_cluster(build_index(30, 8), 0)
        with pytest.raises(SerializationError):
            deserialize_cluster(blob[: len(blob) // 2])

    def test_unsupported_version(self):
        blob = bytearray(serialize_cluster(build_index(2, 4), 0))
        blob[4] = 99  # version field follows the 4-byte magic
        with pytest.raises(SerializationError, match="version"):
            deserialize_cluster(bytes(blob))

    def test_dhn1_blob_refused(self):
        blob = serialize_cluster(build_index(5, 4), 0)
        with pytest.raises(SerializationError, match="bad magic"):
            deserialize_cluster(b"DHN1" + blob[4:])

    def test_trailing_bytes_rejected(self):
        """Readers that never parse the graph take the vectors from the
        blob's end, so a blob longer than its sections is corrupt."""
        blob = serialize_cluster(build_index(30, 8), 0)
        with pytest.raises(SerializationError, match="trailing"):
            deserialize_cluster(blob + b"\0" * 12)

    @pytest.mark.parametrize("width", [0, 3, 8])
    def test_bad_width_rejected(self, width):
        blob = bytearray(serialize_cluster(build_index(30, 8), 0))
        assert cluster_blob_split(blob).id_width == 1
        struct.pack_into("<H", blob, WIDTH_OFFSET, width)
        with pytest.raises(SerializationError, match="bad id width"):
            deserialize_cluster(bytes(blob))

    def test_wider_than_needed_width_rejected(self):
        """A well-formed blob at 2-byte ids for a 3-node graph: one graph
        has one encoding, so the decoder refuses it."""
        index = bulk_index(3, [[[1]], [[2]], [[0]]])
        narrow = serialize_cluster(index, 0)
        head = bytearray(narrow[:HEADER_SIZE + 27])
        struct.pack_into("<H", head, WIDTH_OFFSET, 2)
        wide = (bytes(head) + struct.pack("<6H", 1, 1, 1, 1, 2, 0) + b"\0"
                + narrow[-12:])
        with pytest.raises(SerializationError, match="narrowest"):
            deserialize_cluster(wide)

    def test_truncated_counts_section(self):
        index = build_index(30, 8)
        blob = serialize_cluster(index, 0)
        counts_start = HEADER_SIZE + 9 * len(index)
        with pytest.raises(SerializationError, match="neighbour counts"):
            deserialize_cluster(blob[:counts_start + 3])

    def test_non_zero_pad_rejected(self):
        index = bulk_index(3, [[[1]], [[2]], [[0]]])
        blob = bytearray(serialize_cluster(index, 0))
        assert len(blob) == HEADER_SIZE + 27 + 6 + 3 + 12  # 3 B of pad
        blob[HEADER_SIZE + 27 + 6] = 1
        with pytest.raises(SerializationError, match="pad"):
            deserialize_cluster(bytes(blob))

    def test_level_above_255_refused_by_the_writer(self):
        adjacency = [[[1]], [[0]] + [[] for _ in range(256)]]
        with pytest.raises(SerializationError, match="level 256"):
            serialize_cluster(bulk_index(2, adjacency), 0)
        adjacency[1].pop()
        restored, _ = deserialize_cluster(
            serialize_cluster(bulk_index(2, adjacency), 0))
        assert restored.graph.max_level == 255


#: Header layout: magic (4 B), version (2 B), then the id width (u16).
WIDTH_OFFSET = 6
HEADER_SIZE = 28


def bulk_index(num_nodes: int, adjacency: list) -> HnswIndex:
    """A synthetic one-dimensional graph loaded as given, not built."""
    index = HnswIndex(1)
    graph = index.graph
    graph.bulk_load(np.arange(num_nodes, dtype=np.float32)[:, None],
                    adjacency)
    levels = [len(layers) - 1 for layers in adjacency]
    graph.max_level = max(levels)
    graph.entry_point = levels.index(graph.max_level)
    index.labels = list(range(10**12, 10**12 + num_nodes))
    return index


def ring(num_nodes: int) -> list:
    """Every node linked to its two ring neighbours; every 97th node also
    on layer 1, linked to the next such node."""
    upper = list(range(0, num_nodes, 97))
    adjacency = [[[(node + 1) % num_nodes, (node - 1) % num_nodes]]
                 for node in range(num_nodes)]
    for rank, node in enumerate(upper):
        adjacency[node].append([upper[(rank + 1) % len(upper)]])
    return adjacency


class TestIdWidth:
    """One width per blob: the narrowest that holds both the largest node
    id and the longest neighbour list."""

    def assert_round_trip(self, index: HnswIndex, width: int) -> None:
        blob = serialize_cluster(index, 5)
        assert cluster_blob_split(blob).id_width == width
        assert len(blob) == serialized_cluster_size(index)
        restored, cid = deserialize_cluster(blob)
        assert cid == 5
        assert restored.labels == index.labels
        assert restored.graph.adjacency == index.graph.adjacency
        assert restored.graph.max_level == index.graph.max_level
        assert restored.graph.entry_point == index.graph.entry_point
        np.testing.assert_array_equal(restored.graph.vectors,
                                      index.graph.vectors)

    @pytest.mark.parametrize("num_nodes,width", [(256, 1), (257, 2),
                                                 (65_536, 2), (65_537, 4)])
    def test_node_count_boundary(self, num_nodes, width):
        self.assert_round_trip(bulk_index(num_nodes, ring(num_nodes)),
                               width)

    @pytest.mark.parametrize("count,width", [(255, 1), (256, 2)])
    def test_neighbour_count_boundary(self, count, width):
        """Lists may repeat ids, so a long list can outgrow the ids."""
        adjacency = ring(10)
        adjacency[3][0] = [node % 10 for node in range(count)]
        self.assert_round_trip(bulk_index(10, adjacency), width)

    def test_width_matches_reference(self):
        index = bulk_index(300, ring(300))
        assert serialize_cluster(index, 1) == \
            serialize_cluster_reference(index, 1)

    def test_split_sums_to_the_blob(self):
        index = build_index(120, 12, seed=3)
        blob = serialize_cluster(index, 0)
        split = cluster_blob_split(blob)
        assert split.vectors == 4 * 120 * 12
        assert split.labels_levels == 9 * 120
        assert split.vectors + split.labels_levels + split.graph == len(blob)


class TestOverflowRecords:
    def test_record_size_formula(self):
        assert overflow_record_size(4) == 12 + 16
        assert overflow_record_size(128) == 12 + 512

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            overflow_record_size(0)

    def test_roundtrip_single(self):
        record = OverflowRecord(global_id=1_000_000, cluster_id=17,
                                vector=np.arange(6, dtype=np.float32))
        blob = pack_overflow_record(record)
        assert len(blob) == overflow_record_size(6)
        (restored,) = unpack_overflow_records(blob, 6, 1)
        assert restored.global_id == 1_000_000
        assert restored.cluster_id == 17
        np.testing.assert_array_equal(restored.vector, record.vector)

    def test_roundtrip_many_concatenated(self):
        records = [OverflowRecord(i, i % 3,
                                  np.full(5, float(i), dtype=np.float32))
                   for i in range(10)]
        blob = b"".join(pack_overflow_record(r) for r in records)
        restored = unpack_overflow_records(blob, 5, 10)
        assert [r.global_id for r in restored] == list(range(10))

    def test_partial_unpack(self):
        records = [OverflowRecord(i, 0, np.zeros(3, dtype=np.float32))
                   for i in range(5)]
        blob = b"".join(pack_overflow_record(r) for r in records)
        assert len(unpack_overflow_records(blob, 3, 2)) == 2

    def test_short_blob_rejected(self):
        with pytest.raises(SerializationError, match="overflow blob"):
            unpack_overflow_records(b"\x00" * 10, 4, 1)

    def test_negative_global_id_supported(self):
        record = OverflowRecord(-5, 0, np.zeros(2, dtype=np.float32))
        (restored,) = unpack_overflow_records(pack_overflow_record(record),
                                              2, 1)
        assert restored.global_id == -5
