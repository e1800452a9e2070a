"""The global metadata block at the head of the remote region.

§3.2: "At the beginning of this memory space, a global metadata block
records the offsets of each sub-HNSW cluster, as their sizes vary. ... The
memory offsets of each sub-HNSW cluster are cached in all compute instances
after the sub-HNSW clusters are written to the memory pool, with the latest
version stored at the beginning of the memory space in the memory
instance."

The block is versioned at two granularities.  The global ``version``
bumps on every published layout mutation, and compute instances detect
staleness by comparing the version of their cached copy against the first
8 bytes of the region.  Each :class:`GroupEntry` additionally carries its
own ``version`` stamp, bumped only when *that* group's shadow rebuild
cuts over — so a refreshing instance invalidates exactly the clusters
whose group moved instead of guessing from entry diffs.

Past the packed block, still inside the metadata reserve, lives one u64
rebuild-lock word per group (see :func:`rebuild_lock_offset`).  Writers
arbitrate group-rebuild leadership with remote CAS on these words; they
are not part of the packed bytes so the block itself stays append-only.

Wire format:

* header: magic ``b"DHM1"``, version u64, num_clusters u32, num_groups u32,
  dim u32, overflow_capacity_records u32
* per cluster: blob_offset u64, blob_length u64, group_id u32, pad u32
* per group: overflow_offset u64, capacity_records u32, version u32

A trailing ``b"DHMC"`` cold-tier directory (written by deployments of the
retired PQ cold tier) is refused, not ignored: its extents would read as
leaks to ``fsck``.

(The per-group overflow *tail* counter is NOT here — it lives at the head
of each overflow area so inserts can reserve slots with one remote FAA
without touching the metadata block.)
"""

from __future__ import annotations

import dataclasses
import struct

from repro.errors import LayoutError

__all__ = ["ClusterEntry", "GroupEntry", "GlobalMetadata",
           "REBUILD_LOCK_BYTES", "rebuild_lock_offset"]

_MAGIC = b"DHM1"
_COLD_MARKER = b"DHMC"
_HEADER = struct.Struct("<4sxxxxQIIII")
_CLUSTER = struct.Struct("<QQII")
_GROUP = struct.Struct("<QII")

#: One u64 rebuild-lock word per group, laid out after the packed block.
REBUILD_LOCK_BYTES = 8


def rebuild_lock_offset(packed_nbytes: int, group_id: int) -> int:
    """Region offset of ``group_id``'s rebuild-lock word.

    Lock words sit in the metadata reserve just past the packed block,
    8-aligned so remote CAS can target them.  The packed size is constant
    for a deployment (entry counts never change), so the words never
    move — unlike the groups they guard.
    """
    if group_id < 0:
        raise LayoutError(f"group id must be >= 0, got {group_id}")
    base = packed_nbytes + (-packed_nbytes) % 8
    return base + group_id * REBUILD_LOCK_BYTES


@dataclasses.dataclass(frozen=True)
class ClusterEntry:
    """Location of one serialized sub-HNSW cluster."""

    blob_offset: int
    blob_length: int
    group_id: int


@dataclasses.dataclass(frozen=True)
class GroupEntry:
    """Location of one group's shared overflow area.

    ``overflow_offset`` points at the u64 tail counter; records start 8
    bytes later.  ``version`` stamps this group's epoch: it starts at 1
    and bumps by one each time a shadow rebuild of the group cuts over,
    letting refreshing instances invalidate per group instead of
    rereading everything on any global bump.
    """

    overflow_offset: int
    capacity_records: int
    version: int = 1


@dataclasses.dataclass
class GlobalMetadata:
    """In-memory form of the metadata block."""

    version: int
    dim: int
    overflow_capacity_records: int
    clusters: list[ClusterEntry]
    groups: list[GroupEntry]

    @property
    def num_clusters(self) -> int:
        """Number of sub-HNSW clusters in the layout."""
        return len(self.clusters)

    @property
    def num_groups(self) -> int:
        """Number of cluster-pair groups."""
        return len(self.groups)

    def group_members(self, group_id: int) -> list[int]:
        """Cluster ids of ``group_id``'s members, first member (the blob
        before the overflow area) first.  Fixed at build time: a rebuild
        moves a group, it never re-pairs clusters."""
        return [cid for cid, cluster in enumerate(self.clusters)
                if cluster.group_id == group_id]

    # ------------------------------------------------------------------
    @staticmethod
    def packed_size(num_clusters: int, num_groups: int) -> int:
        """Serialized size of a block with the given entry counts."""
        return (_HEADER.size + num_clusters * _CLUSTER.size
                + num_groups * _GROUP.size)

    def pack(self) -> bytes:
        """Serialize the block."""
        parts = [_HEADER.pack(_MAGIC, self.version, self.num_clusters,
                              self.num_groups, self.dim,
                              self.overflow_capacity_records)]
        for cluster in self.clusters:
            parts.append(_CLUSTER.pack(cluster.blob_offset,
                                       cluster.blob_length,
                                       cluster.group_id, 0))
        for group in self.groups:
            parts.append(_GROUP.pack(group.overflow_offset,
                                     group.capacity_records,
                                     group.version))
        return b"".join(parts)

    @classmethod
    def unpack(cls, blob: bytes) -> "GlobalMetadata":
        """Deserialize a block, validating magic and lengths."""
        if len(blob) < _HEADER.size:
            raise LayoutError(
                f"metadata blob of {len(blob)} B shorter than header")
        magic, version, num_clusters, num_groups, dim, capacity = (
            _HEADER.unpack_from(blob, 0))
        if magic != _MAGIC:
            raise LayoutError(f"bad metadata magic {magic!r}")
        needed = cls.packed_size(num_clusters, num_groups)
        if len(blob) < needed:
            raise LayoutError(
                f"metadata blob of {len(blob)} B, need {needed} B for "
                f"{num_clusters} clusters / {num_groups} groups")
        offset = _HEADER.size
        clusters = []
        for _ in range(num_clusters):
            blob_offset, blob_length, group_id, _pad = _CLUSTER.unpack_from(
                blob, offset)
            clusters.append(ClusterEntry(blob_offset, blob_length, group_id))
            offset += _CLUSTER.size
        groups = []
        for _ in range(num_groups):
            overflow_offset, cap, group_version = _GROUP.unpack_from(
                blob, offset)
            # Pre-stamp blocks packed a zero pad where the version lives
            # now; treat them as first-epoch groups.
            groups.append(GroupEntry(overflow_offset, cap,
                                     version=group_version or 1))
            offset += _GROUP.size
        if blob[offset:offset + 4] == _COLD_MARKER:
            raise LayoutError(
                "metadata block carries a cold-tier directory: the PQ "
                "cold tier is retired — rebuild the deployment")
        return cls(version=version, dim=dim,
                   overflow_capacity_records=capacity,
                   clusters=clusters, groups=groups)

    @staticmethod
    def peek_version(first_bytes: bytes) -> int:
        """Read just the version from the first 16 header bytes.

        Compute instances poll this with a tiny READ to detect stale
        cached offsets without transferring the whole block.
        """
        if len(first_bytes) < 16:
            raise LayoutError("need at least 16 bytes to peek version")
        magic = first_bytes[:4]
        if magic != _MAGIC:
            raise LayoutError(f"bad metadata magic {magic!r}")
        (version,) = struct.unpack_from("<Q", first_bytes, 8)
        return version
