"""Global metadata block: pack/unpack, version peeking, validation."""

from __future__ import annotations

import struct

import pytest

from repro.errors import LayoutError
from repro.layout.metadata import ClusterEntry, GlobalMetadata, GroupEntry


def sample_metadata(num_clusters: int = 4) -> GlobalMetadata:
    clusters = [ClusterEntry(blob_offset=1000 * i, blob_length=500 + i,
                             group_id=i // 2) for i in range(num_clusters)]
    groups = [GroupEntry(overflow_offset=10_000 + 100 * g,
                         capacity_records=16)
              for g in range((num_clusters + 1) // 2)]
    return GlobalMetadata(version=3, dim=32, overflow_capacity_records=16,
                          clusters=clusters, groups=groups)


class TestRoundtrip:
    def test_full_roundtrip(self):
        original = sample_metadata()
        restored = GlobalMetadata.unpack(original.pack())
        assert restored.version == 3
        assert restored.dim == 32
        assert restored.clusters == original.clusters
        assert restored.groups == original.groups

    def test_odd_cluster_count(self):
        original = sample_metadata(5)
        restored = GlobalMetadata.unpack(original.pack())
        assert restored.num_clusters == 5
        assert restored.num_groups == 3

    def test_packed_size_matches(self):
        original = sample_metadata(6)
        assert len(original.pack()) == GlobalMetadata.packed_size(6, 3)

    def test_extra_trailing_bytes_tolerated(self):
        # Compute instances read a fixed-size area; padding must not break
        # unpack.
        blob = sample_metadata().pack() + bytes(64)
        assert GlobalMetadata.unpack(blob).num_clusters == 4


class TestVersionPeek:
    def test_peek_matches_full_unpack(self):
        blob = sample_metadata().pack()
        assert GlobalMetadata.peek_version(blob[:16]) == 3

    def test_peek_requires_16_bytes(self):
        with pytest.raises(LayoutError, match="16 bytes"):
            GlobalMetadata.peek_version(b"\x00" * 8)

    def test_peek_validates_magic(self):
        with pytest.raises(LayoutError, match="magic"):
            GlobalMetadata.peek_version(b"\x00" * 16)


class TestErrors:
    def test_bad_magic(self):
        blob = bytearray(sample_metadata().pack())
        blob[0] = 0
        with pytest.raises(LayoutError, match="magic"):
            GlobalMetadata.unpack(bytes(blob))

    def test_truncated_header(self):
        with pytest.raises(LayoutError, match="shorter than header"):
            GlobalMetadata.unpack(b"DHM1")

    def test_truncated_entries(self):
        blob = sample_metadata().pack()
        with pytest.raises(LayoutError, match="need"):
            GlobalMetadata.unpack(blob[:40])

    def test_trailing_cold_directory_refused(self):
        """A block written with the retired PQ cold tier ends in a
        ``DHMC`` directory (codebook offset and length, then one extent
        per cluster); unpack refuses it instead of ignoring it."""
        cold = struct.pack("<4sxxxxQQ", b"DHMC", 90_000, 4096) + b"".join(
            struct.pack("<QQ", 100_000 + 512 * cid, 512) for cid in range(4))
        blob = sample_metadata().pack() + cold + bytes(64)
        with pytest.raises(LayoutError, match="cold-tier directory"):
            GlobalMetadata.unpack(blob)
