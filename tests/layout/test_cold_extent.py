"""Cold-tier wire formats: DHQ1 codebook blobs, DHC1 cold extents, and
the metadata cold directory — round-trips, validation, and the
byte-identity guarantee for layouts built with the tier off."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.errors import SerializationError
from repro.layout.cold import (CODEBOOK_MAGIC, COLD_MAGIC,
                               codebook_blob_size, cold_extent_size,
                               deserialize_codebook,
                               deserialize_cold_cluster,
                               serialize_codebook, serialize_cold_cluster)
from repro.layout.metadata import (ClusterEntry, ColdDirectory,
                                   ColdExtentEntry, GlobalMetadata,
                                   GroupEntry)
from repro.pq import PqCodebook


@pytest.fixture(scope="module")
def book():
    rng = np.random.default_rng(3)
    trained = PqCodebook(16, num_subspaces=4, seed=8)
    trained.train(rng.standard_normal((400, 16)).astype(np.float32))
    return trained


class TestCodebookBlob:
    def test_roundtrip_byte_exact(self, book):
        blob = serialize_codebook(book)
        assert blob[:4] == CODEBOOK_MAGIC
        assert len(blob) == codebook_blob_size(book)
        restored = deserialize_codebook(blob)
        assert restored.dim == book.dim
        assert restored.num_subspaces == book.num_subspaces
        assert restored.num_centroids == book.num_centroids == 256
        assert restored.centroids.tobytes() == book.centroids.tobytes()

    def test_roundtrip_preserves_encodings(self, book):
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((32, 16)).astype(np.float32)
        restored = deserialize_codebook(serialize_codebook(book))
        assert np.array_equal(restored.encode(rows), book.encode(rows))

    def test_bits_word_is_eight(self, book):
        """The header keeps its ``bits`` word — always 8, as every saved
        codebook holds — and the decoder refuses any other width."""
        blob = bytearray(serialize_codebook(book))
        assert struct.unpack_from("<I", blob, 16) == (8,)
        struct.pack_into("<I", blob, 16, 6)
        with pytest.raises(SerializationError, match="bits=6"):
            deserialize_codebook(bytes(blob))

    def test_bad_magic(self, book):
        blob = bytearray(serialize_codebook(book))
        blob[:4] = b"XXXX"
        with pytest.raises(SerializationError, match="magic"):
            deserialize_codebook(bytes(blob))

    def test_truncated(self, book):
        blob = serialize_codebook(book)
        with pytest.raises(SerializationError, match="truncated"):
            deserialize_codebook(blob[:-8])
        with pytest.raises(SerializationError, match="shorter"):
            deserialize_codebook(blob[:10])


class TestColdClusterExtent:
    #: Byte offsets of the header's two reserved i32 words (once the
    #: medoid and degree of a per-cluster graph section).
    MEDOID_WORD, DEGREE_WORD = 28, 32

    def make(self, n=11, m=4, seed=0):
        rng = np.random.default_rng(seed)
        labels = rng.permutation(1000)[:n].astype(np.int64)
        codes = rng.integers(0, 32, size=(n, m), dtype=np.uint8)
        return labels, codes

    def test_pq_roundtrip(self):
        labels, codes = self.make()
        blob = serialize_cold_cluster(7, labels, codes,
                                      vectors_offset=4096)
        assert blob[:4] == COLD_MAGIC
        assert len(blob) == cold_extent_size(11, 4)
        # The reserved words keep the values every earlier pq build wrote.
        assert struct.unpack_from("<ii", blob, self.MEDOID_WORD) == (-1, 0)
        cold = deserialize_cold_cluster(blob)
        assert cold.cluster_id == 7
        assert cold.num_nodes == 11
        assert cold.vectors_offset == 4096
        assert np.array_equal(cold.labels, labels)
        assert np.array_equal(cold.codes, codes)

    def test_graph_section_rejected(self):
        """Bytes from outside stay checked: an extent whose header says it
        carries an adjacency (``degree > 0``) is refused, not scanned."""
        labels, codes = self.make()
        blob = bytearray(serialize_cold_cluster(2, labels, codes, 512))
        struct.pack_into("<i", blob, self.DEGREE_WORD, 3)
        blob += bytes(4 * 11 * 3)   # the adjacency such an extent carried
        with pytest.raises(SerializationError, match="reserved"):
            deserialize_cold_cluster(bytes(blob))

    def test_codes_padded_to_eight_bytes(self):
        # 3 nodes x 3 subspaces = 9 code bytes -> padded to 16.
        labels, codes = self.make(n=3, m=3)
        blob = serialize_cold_cluster(0, labels, codes, 0)
        assert len(blob) == cold_extent_size(3, 3)
        # 9 code bytes occupy a 16-byte slot; 3 would occupy 8.
        one_subspace = serialize_cold_cluster(0, labels, codes[:, :1], 0)
        assert len(blob) - len(one_subspace) == 8
        cold = deserialize_cold_cluster(blob)
        assert np.array_equal(cold.codes, codes)

    def test_label_count_mismatch(self):
        labels, codes = self.make()
        with pytest.raises(SerializationError, match="labels"):
            serialize_cold_cluster(0, labels[:-1], codes, 0)

    def test_medoid_out_of_range(self):
        # -1 is the only medoid a pq extent carries; 0 would be in range
        # for a graph walk and is refused just the same.
        labels, codes = self.make()
        for medoid in (0, 50):
            blob = bytearray(serialize_cold_cluster(0, labels, codes, 0))
            struct.pack_into("<i", blob, self.MEDOID_WORD, medoid)
            with pytest.raises(SerializationError, match="medoid"):
                deserialize_cold_cluster(bytes(blob))

    def test_truncated(self):
        labels, codes = self.make()
        blob = serialize_cold_cluster(0, labels, codes, 0)
        with pytest.raises(SerializationError, match="truncated"):
            deserialize_cold_cluster(blob[:-8])


# ----------------------------------------------------------------------
def sample_metadata(num_clusters: int = 4,
                    cold: ColdDirectory | None = None) -> GlobalMetadata:
    clusters = [ClusterEntry(blob_offset=1000 * i, blob_length=500 + i,
                             group_id=i // 2) for i in range(num_clusters)]
    groups = [GroupEntry(overflow_offset=10_000 + 100 * g,
                         capacity_records=16)
              for g in range((num_clusters + 1) // 2)]
    return GlobalMetadata(version=3, dim=32, overflow_capacity_records=16,
                          clusters=clusters, groups=groups, cold=cold)


class TestMetadataColdDirectory:
    def test_roundtrip(self):
        cold = ColdDirectory(
            codebook_offset=50_000, codebook_length=2048,
            extents=[ColdExtentEntry(60_000 + 100 * i, 64 + i)
                     for i in range(4)])
        original = sample_metadata(cold=cold)
        blob = original.pack()
        assert len(blob) == GlobalMetadata.packed_size(4, 2, with_cold=True)
        restored = GlobalMetadata.unpack(blob)
        assert restored.cold is not None
        assert restored.cold.codebook_offset == 50_000
        assert restored.cold.codebook_length == 2048
        assert restored.cold.extents == cold.extents
        assert restored.clusters == original.clusters

    def test_zero_length_extent_means_no_cold_form(self):
        cold = ColdDirectory(
            codebook_offset=1, codebook_length=2,
            extents=[ColdExtentEntry(0, 0)] * 4)
        restored = GlobalMetadata.unpack(sample_metadata(cold=cold).pack())
        assert all(e.length == 0 for e in restored.cold.extents)

    def test_pack_without_cold_is_byte_identical_to_legacy(self):
        # The bit-identity gate for cold_tier="off": a metadata block with
        # no cold directory must serialize exactly as before this feature
        # existed — no marker, no padding, same length.
        blob = sample_metadata(cold=None).pack()
        assert len(blob) == GlobalMetadata.packed_size(4, 2, with_cold=False)
        assert b"DHMC" not in blob
        restored = GlobalMetadata.unpack(blob)
        assert restored.cold is None

    def test_extent_count_must_match_clusters(self):
        cold = ColdDirectory(codebook_offset=1, codebook_length=2,
                             extents=[ColdExtentEntry(0, 0)] * 3)
        with pytest.raises(Exception):
            sample_metadata(num_clusters=4, cold=cold).pack()
