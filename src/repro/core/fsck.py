"""Consistency checking of a remote d-HNSW layout.

``fsck`` walks the registered region the way a recovering compute
instance would — metadata block first, then every cluster blob and
overflow area — and validates the invariants the query path relies on:

* the metadata block parses and its version is sane;
* every cluster blob lies inside the region, parses, carries the
  cluster id the metadata claims, and holds only finite vector
  components (``NonFiniteVectorError`` guards the entry points, not
  bytes already in the pool);
* blobs and overflow areas do not overlap each other or the metadata;
* every overflow tail counter is within its capacity (a tail beyond
  capacity indicates a torn rebuild);
* overflow records reference cluster ids belonging to their group;
* a fetch of every cluster at its live tail
  (:func:`~repro.layout.group_layout.cluster_read_ranges`) covers the
  blob, the tail word and every live record, in at most two ranges that
  stay inside the member's own extent;
* no global id is owned (as a base vector) by two clusters;
* every node of a sub-HNSW can be reached from its entry point at layer 0
  (a warning: HNSW does not guarantee it, but a search meets a stranded
  node only if an upper layer happens to lead to it).

The checker never mutates remote memory and reports *all* findings
rather than stopping at the first, so an operator sees the full damage
picture at once.

With a replicated pool (``DHnswConfig.replication_factor > 1``) the walk
can target any replica (``fsck(layout, replica=i)``), and
:func:`repair_replica` is the background-repair half of the failover
story: it re-reads every extent the metadata names from a healthy source
replica, byte-compares it against the damaged target, and rewrites only
the extents that differ — restoring the target to byte-identical before
the selector readmits it.
"""

from __future__ import annotations

import dataclasses
import struct

import numpy as np

from repro.core.engine import RemoteLayout
from repro.errors import LayoutError, SerializationError
from repro.layout.group_layout import (
    cluster_read_extent,
    cluster_read_ranges,
    decode_overflow_tail,
    overflow_area_size,
    overflow_slot_offset,
    overflow_tail_extent,
    unpack_overflow_tail,
)
from repro.layout.metadata import GlobalMetadata, rebuild_lock_offset
from repro.layout.serializer import (
    deserialize_cluster,
    overflow_record_size,
    unpack_overflow_records,
)

__all__ = ["FsckReport", "Finding", "RepairReport", "fsck",
           "repair_replica"]

_U64 = struct.Struct("<Q")


@dataclasses.dataclass(frozen=True)
class Finding:
    """One problem discovered by the checker."""

    severity: str  # "error" | "warning"
    location: str  # e.g. "cluster 3", "group 1", "metadata"
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.location}: {self.message}"


@dataclasses.dataclass
class FsckReport:
    """Outcome of a full layout walk."""

    findings: list[Finding]
    clusters_checked: int = 0
    groups_checked: int = 0
    base_vectors: int = 0
    live_overflow_records: int = 0
    tombstones: int = 0

    @property
    def clean(self) -> bool:
        """True when no error-severity findings exist."""
        return not any(finding.severity == "error"
                       for finding in self.findings)

    def summary(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"clusters checked      : {self.clusters_checked}",
            f"groups checked        : {self.groups_checked}",
            f"base vectors          : {self.base_vectors}",
            f"live overflow records : {self.live_overflow_records}",
            f"tombstones            : {self.tombstones}",
            f"status                : "
            f"{'CLEAN' if self.clean else 'CORRUPT'}",
        ]
        lines.extend(str(finding) for finding in self.findings)
        return "\n".join(lines)


def _read(node, layout: RemoteLayout, offset: int, length: int) -> bytes:
    return node.read(layout.rkey, layout.addr(offset), length)


def _check_read_ranges(metadata: GlobalMetadata, cid: int, tail: int,
                       location: str) -> list[Finding]:
    """The read invariant of ``layout.group_layout`` for one cluster at
    its live ``tail``: the ranges a fetch posts cover what it must serve
    and touch no byte that is not the member's own."""
    cluster = metadata.clusters[cid]
    group = metadata.groups[cluster.group_id]
    start, length = cluster_read_extent(metadata, cid)
    own = (cluster.blob_length
           + overflow_area_size(metadata.dim, group.capacity_records))
    findings = []
    if length - own >= 8:
        # More than the tail word's alignment pad lies between the two.
        findings.append(Finding(
            "error", location,
            f"blob and overflow area are not contiguous: extent of "
            f"{length} B holds {length - own} B of neither"))
    ranges = cluster_read_ranges(metadata, cid, tail)
    if len(ranges) > 2 or any(
            offset < start or offset + nbytes > start + length
            for offset, nbytes in ranges):
        findings.append(Finding(
            "error", location,
            f"read ranges {list(ranges)} leave the extent "
            f"[{start}, {start + length})"))
    live_end = overflow_slot_offset(group.overflow_offset, metadata.dim, tail)
    for first, end, what in (
            (cluster.blob_offset, cluster.blob_offset + cluster.blob_length,
             "the blob"),
            (group.overflow_offset, live_end,
             f"the tail word and {tail} live records")):
        if not any(offset <= first and end <= offset + nbytes
                   for offset, nbytes in ranges):
            findings.append(Finding(
                "error", location,
                f"read ranges {list(ranges)} do not cover {what} "
                f"[{first}, {end})"))
    return findings


def fsck(layout: RemoteLayout, replica: int = 0) -> FsckReport:
    """Validate a remote layout; returns a report of all findings.

    ``replica`` selects which copy of a replicated pool to walk
    (0 = the primary ``layout.memory_node``).
    """
    node = layout.memory_nodes[replica]
    report = FsckReport(findings=[])

    # --- metadata block -------------------------------------------------
    try:
        metadata = GlobalMetadata.unpack(
            _read(node, layout, 0, layout.metadata_nbytes))
    except LayoutError as error:
        report.findings.append(Finding("error", "metadata", str(error)))
        return report
    if metadata.version < 1:
        report.findings.append(Finding(
            "error", "metadata", f"invalid version {metadata.version}"))
    if metadata.dim != layout.dim:
        report.findings.append(Finding(
            "error", "metadata",
            f"dim {metadata.dim} != layout dim {layout.dim}"))

    region_length = layout.region.length

    # --- groups / overflow areas ----------------------------------------
    area_size = overflow_area_size(metadata.dim,
                                   metadata.overflow_capacity_records)
    record_size = overflow_record_size(metadata.dim)

    tails: dict[int, int] = {}
    for gid, group in enumerate(metadata.groups):
        report.groups_checked += 1
        location = f"group {gid}"
        # Version chain: every group stamp is at least 1 and can never
        # run ahead of the global version (each cutover bumps both).
        if group.version < 1:
            report.findings.append(Finding(
                "error", location,
                f"invalid group version {group.version}"))
        elif group.version > metadata.version:
            report.findings.append(Finding(
                "error", location,
                f"group version {group.version} ahead of global "
                f"metadata version {metadata.version} (broken version "
                f"chain)"))
        (lock,) = _U64.unpack(_read(
            node, layout,
            rebuild_lock_offset(layout.metadata_nbytes, gid), 8))
        if lock != 0:
            report.findings.append(Finding(
                "warning", location,
                f"rebuild lock held (token {lock:#x}) — rebuild in "
                f"flight, or leaked by a dead writer"))
        if group.overflow_offset % 8 != 0:
            report.findings.append(Finding(
                "error", location,
                f"overflow tail at {group.overflow_offset} not 8-byte "
                f"aligned"))
        if group.overflow_offset + area_size > region_length:
            report.findings.append(Finding(
                "error", location, "overflow area exceeds region"))
            continue
        raw_tail = unpack_overflow_tail(
            _read(node, layout, *overflow_tail_extent(group)))
        count, sealed = decode_overflow_tail(raw_tail,
                                             group.capacity_records)
        tails[gid] = count
        if sealed:
            # Live metadata must never point at a sealed area: the seal
            # happens inside the cutover that republishes the group.
            report.findings.append(Finding(
                "error", location,
                f"overflow area sealed but still referenced by live "
                f"metadata (lost cutover)"))
        elif raw_tail > group.capacity_records:
            report.findings.append(Finding(
                "warning", location,
                f"tail counter {raw_tail} exceeds capacity "
                f"{group.capacity_records} (torn reservation)"))
        blob = _read(node, layout,
                     overflow_slot_offset(group.overflow_offset,
                                          metadata.dim, 0),
                     tails[gid] * record_size)
        records = unpack_overflow_records(blob, metadata.dim, tails[gid])
        valid_members = metadata.group_members(gid)
        for slot, record in enumerate(records):
            if record.tombstone:
                report.tombstones += 1
            else:
                report.live_overflow_records += 1
            if record.cluster_id not in valid_members:
                report.findings.append(Finding(
                    "error", location,
                    f"slot {slot} references cluster "
                    f"{record.cluster_id}, not a member of this group"))

    # --- cluster blobs ---------------------------------------------------
    owners: dict[int, int] = {}
    for cid, cluster in enumerate(metadata.clusters):
        report.clusters_checked += 1
        location = f"cluster {cid}"
        end = cluster.blob_offset + cluster.blob_length
        if end > region_length:
            report.findings.append(Finding(
                "error", location, "blob exceeds region"))
            continue
        if cluster.group_id in tails:
            report.findings.extend(_check_read_ranges(
                metadata, cid, tails[cluster.group_id], location))
        try:
            index, parsed_cid = deserialize_cluster(
                _read(node, layout, cluster.blob_offset, cluster.blob_length))
        except SerializationError as error:
            report.findings.append(Finding("error", location, str(error)))
            continue
        if parsed_cid != cid:
            report.findings.append(Finding(
                "error", location,
                f"blob claims to be cluster {parsed_cid}"))
        if index.dim != metadata.dim:
            report.findings.append(Finding(
                "error", location,
                f"blob dim {index.dim} != metadata dim {metadata.dim}"))
        non_finite = ~np.isfinite(index.graph.vectors).all(axis=1)
        if non_finite.any():
            report.findings.append(Finding(
                "error", location,
                f"{int(non_finite.sum())} node(s) with non-finite vector "
                f"components: {np.flatnonzero(non_finite)[:8].tolist()}"))
        try:
            index.graph.check_invariants()
        except AssertionError as error:
            report.findings.append(Finding(
                "error", location, f"graph invariant violated: {error}"))
        else:
            # Not an invariant: the selector may prune a node's last
            # in-edge.
            stranded = index.graph.unreachable()
            if stranded:
                report.findings.append(Finding(
                    "warning", location,
                    f"{len(stranded)} of {len(index)} nodes unreachable "
                    f"from the entry point at layer 0: {stranded[:8]}"))
        report.base_vectors += len(index)
        for label in index.labels:
            previous = owners.setdefault(label, cid)
            if previous != cid:
                report.findings.append(Finding(
                    "error", location,
                    f"global id {label} also owned by cluster "
                    f"{previous}"))

    # --- overlap check ----------------------------------------------------
    # Everything in-bounds the metadata names, the block itself included.
    extents = sorted(
        (offset, offset + length, location)
        for offset, length, location in _layout_extents(layout, metadata)
        if length and offset + length <= region_length)
    for (_, end, left), (start, _, right) in zip(extents, extents[1:]):
        if end > start:
            report.findings.append(Finding(
                "error", f"{left}/{right}",
                f"extents overlap ({left} ends at {end}, {right} starts "
                f"at {start})"))

    # --- retired-extent ledger (grace-period reclamation) -----------------
    # A retired extent is a group span a shadow rebuild replaced.  It must
    # never overlap anything the live metadata still names (that would mean
    # a cutover retired bytes readers can still reach), and once every
    # registered observer has moved past its retiring version it should
    # have been reclaimed — a lingering reclaimable entry is a leak.
    reclaimable = layout.retired.reclaimable()
    for entry in layout.retired.entries:
        location = f"retired extent @{entry.offset}"
        if entry.offset < 0 or entry.offset + entry.length > region_length:
            report.findings.append(Finding(
                "error", location, "retired extent exceeds region"))
            continue
        for start, end, live in extents:
            if entry.offset < end and start < entry.offset + entry.length:
                report.findings.append(Finding(
                    "error", f"{location}/{live}",
                    f"retired extent [{entry.offset}, "
                    f"{entry.offset + entry.length}) overlaps live {live}"))
        if entry in reclaimable:
            report.findings.append(Finding(
                "warning", location,
                f"retired at version {entry.retired_version} and every "
                f"observer has moved past it, but never reclaimed "
                f"(leaked extent, {entry.length} B)"))

    # --- orphan extents ---------------------------------------------------
    # Every allocated byte must be reachable: named by live metadata, on
    # the allocator's free list, or awaiting grace-period reclaim in the
    # retired ledger.  Gaps are orphans — space lost to a crashed rebuild
    # that allocated its shadow copy but never published or retired it.
    # A gap under 8 B is the pad that 8-aligns a group's tail word.
    allocator = layout.allocator
    covered = [(start, end) for start, end, _ in extents]
    covered.extend((offset, offset + length)
                   for offset, length in allocator.free_extents())
    covered.extend((entry.offset, entry.offset + entry.length)
                   for entry in layout.retired.entries)
    covered.sort()
    cursor = allocator.metadata_reserve
    covered.append((allocator.tail, allocator.tail))
    for start, end in covered:
        if start - cursor >= 8:
            report.findings.append(Finding(
                "warning", f"region [{cursor}, {start})",
                f"{start - cursor} B allocated but referenced by neither "
                f"live metadata, the free list, nor the retired ledger "
                f"(orphan extent)"))
        cursor = max(cursor, end)
    return report


# ----------------------------------------------------------------------
# Replica repair (the background half of the failover story)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class RepairReport:
    """Outcome of one replica repair pass."""

    replica: int
    source: int
    extents_checked: int = 0
    extents_damaged: int = 0
    extents_repaired: int = 0
    bytes_repaired: int = 0

    @property
    def clean(self) -> bool:
        """True when the target was already byte-identical to the source."""
        return self.extents_damaged == 0

    def summary(self) -> str:
        return (f"replica {self.replica} repaired from replica "
                f"{self.source}: {self.extents_repaired}/"
                f"{self.extents_checked} extents rewritten "
                f"({self.bytes_repaired} B)")


def _layout_extents(layout: RemoteLayout,
                    metadata: GlobalMetadata) -> list[tuple[int, int, str]]:
    """Every live extent of the layout: metadata, overflow areas, blobs."""
    extents = [(0, layout.metadata_nbytes, "metadata")]
    area_size = overflow_area_size(metadata.dim,
                                   metadata.overflow_capacity_records)
    for gid, group in enumerate(metadata.groups):
        extents.append((group.overflow_offset, area_size, f"group {gid}"))
    for cid, cluster in enumerate(metadata.clusters):
        extents.append((cluster.blob_offset, cluster.blob_length,
                        f"cluster {cid}"))
    return extents


def repair_replica(layout: RemoteLayout, target: int,
                   source: int = 0) -> RepairReport:
    """Restore replica ``target`` to byte-identical with ``source``.

    Walks every extent the *source's* authoritative metadata names —
    the metadata block, each group's overflow area, each cluster blob —
    byte-compares source against target, and rewrites only the extents
    that differ.  By construction every damaged extent is repaired, so
    ``extents_damaged == extents_repaired`` on return; the caller then
    readmits the replica to selection.
    """
    nodes = layout.memory_nodes
    if not 0 <= target < len(nodes) or not 0 <= source < len(nodes):
        raise LayoutError(
            f"repair targets replica {target} from {source}, but the "
            f"pool has {len(nodes)} replica(s)")
    if target == source:
        raise LayoutError(f"cannot repair replica {target} from itself")
    src_node, dst_node = nodes[source], nodes[target]
    # Trust the source's metadata, not the (possibly damaged) target's.
    metadata = GlobalMetadata.unpack(
        _read(src_node, layout, 0, layout.metadata_nbytes))
    report = RepairReport(replica=target, source=source)
    for offset, length, _location in _layout_extents(layout, metadata):
        report.extents_checked += 1
        if length == 0:
            continue
        want = _read(src_node, layout, offset, length)
        have = _read(dst_node, layout, offset, length)
        if bytes(want) != bytes(have):
            report.extents_damaged += 1
            dst_node.write(layout.rkey, layout.addr(offset), want)
            report.extents_repaired += 1
            report.bytes_repaired += length
    return report
