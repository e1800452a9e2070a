"""Cluster blob and overflow-record serialization round-trips."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.hnsw import HnswIndex, HnswParams
from repro.layout.serializer import (
    OverflowRecord,
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
