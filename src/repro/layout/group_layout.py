"""Pairing sub-HNSW clusters into groups with shared overflow space.

§3.2 and Fig. 4: "The remaining memory space is divided into groups, each of
which is capable of holding two sub-HNSW clusters. Within each group, the
first section stores the first serialized sub-HNSW cluster ... The second
sub-HNSW cluster is placed at the end of the group. Between these two
clusters, we allocate a shared overflow memory space to accommodate newly
inserted vectors for both sub-HNSW clusters."

Because overflow sits *between* the pair, either cluster plus every
overflow record relevant to it is one contiguous byte range — the property
that lets a query fetch a cluster and its fresh insertions in a single
round trip.  Two invariants follow, stated here once; the fetcher,
``fsck`` and the tests all take them from the functions below:

*layout* (:func:`cluster_read_extent`)
    A member's blob and its group's overflow area are contiguous:
    ``[blob | area)`` for the first member of a group, ``[area | blob)``
    for the second.  ``fsck`` holds every fetch's ranges inside it (the
    planner sizes a byte-capped wave from those ranges); the two extents
    together are the group's span
    (:func:`group_extent`), which a rebuild snapshots and retires, and
    :func:`place_group` is the one rule that puts the three parts there.

*read* (:func:`cluster_read_ranges`)
    A cluster fetch is one doorbell ring of at most two WQEs whose ranges
    lie inside the member's extent and cover the blob, the tail word and
    every record slot below ``slots``.  The tail word *in the payload* is
    the only authority on how many records are live: records in
    ``[slots, tail)`` arrive by one delta ring
    (:func:`overflow_delta_ranges`) before the entry is admitted, so the
    empty slots past the tail never cross the wire and a stale ``slots``
    costs time, never correctness.

This module is pure layout arithmetic; writing bytes through a queue pair
is the engine's job.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Iterable

from repro.errors import LayoutError, StaleReadError
from repro.layout.metadata import ClusterEntry, GlobalMetadata, GroupEntry
from repro.layout.serializer import (
    OverflowRecord,
    overflow_record_size,
    unpack_overflow_records,
)

__all__ = ["GroupPlan", "place_group", "plan_groups",
           "cluster_read_extent", "group_extent", "cluster_read_ranges",
           "overflow_delta_ranges",
           "overflow_area_size", "decode_overflow_tail",
           "unpack_overflow_tail", "pack_overflow_tail",
           "live_overflow_count", "overflow_tail_extent",
           "overflow_slot_offset", "unpack_overflow_area",
           "OVERFLOW_TAIL_BYTES", "OVERFLOW_SEALED"]

_TAIL = struct.Struct("<Q")

OVERFLOW_TAIL_BYTES = 8  # u64 tail counter at the head of each overflow area

#: Seal sentinel a shadow rebuild's cutover adds to a retired group's
#: tail counter with a single FAA.  Far above any real capacity, so a
#: racing writer's FAA lands at ``>= OVERFLOW_SEALED`` and rolls back,
#: while ``sealed_tail - OVERFLOW_SEALED`` still recovers the exact
#: final record count — the retired extent stays a decodable snapshot
#: for readers pinned to the previous metadata epoch.
OVERFLOW_SEALED = 1 << 32


def decode_overflow_tail(raw_tail: int,
                         capacity_records: int) -> tuple[int, bool]:
    """Interpret a raw u64 tail counter.

    Returns ``(record_count, sealed)``: the number of valid records in
    the area (clamped to capacity; transiently over-reserved slots hold
    no data) and whether a cutover sealed the area.  Works on both live
    and retired overflow areas, so readers at either epoch decode the
    same bytes consistently.
    """
    raw_tail = int(raw_tail)
    sealed = raw_tail >= OVERFLOW_SEALED
    if sealed:
        raw_tail -= OVERFLOW_SEALED
    return min(raw_tail, capacity_records), sealed


def unpack_overflow_tail(buffer: "bytes | memoryview", offset: int = 0) -> int:
    """The raw u64 tail word stored at ``buffer[offset:]``."""
    return _TAIL.unpack_from(buffer, offset)[0]


def pack_overflow_tail(count: int) -> bytes:
    """Wire form of a tail word holding ``count`` records."""
    return _TAIL.pack(count)


def live_overflow_count(buffer: "bytes | memoryview", capacity_records: int,
                        where: str, offset: int = 0) -> int:
    """Record count behind the tail word at ``buffer[offset:]``, for a
    reader about to serve the area (``where`` names what it read).

    A sealed word means a cutover moved the group after the reader's
    metadata refresh, so the area misses every write since: raises the
    retryable :class:`StaleReadError`; callers refresh and re-plan.
    """
    count, sealed = decode_overflow_tail(
        unpack_overflow_tail(buffer, offset), capacity_records)
    if sealed:
        raise StaleReadError(
            f"{where} sealed by a concurrent rebuild cutover; refresh "
            f"metadata and re-plan", op="READ")
    return count


def overflow_tail_extent(group: GroupEntry) -> tuple[int, int]:
    """Region ``(offset, length)`` of a group's tail word."""
    return group.overflow_offset, OVERFLOW_TAIL_BYTES


def overflow_slot_offset(overflow_offset: int, dim: int, slot: int) -> int:
    """Region offset of record ``slot`` in the area at ``overflow_offset``."""
    return (overflow_offset + OVERFLOW_TAIL_BYTES
            + slot * overflow_record_size(dim))


def unpack_overflow_area(area: "bytes | memoryview", dim: int, count: int,
                         cluster_id: int | None = None
                         ) -> list[OverflowRecord]:
    """The first ``count`` records of an area buffer (tail word first);
    with ``cluster_id``, only that member's."""
    return unpack_overflow_records(area[OVERFLOW_TAIL_BYTES:], dim, count,
                                   cluster_id)


def overflow_area_size(dim: int, capacity_records: int) -> int:
    """Bytes of one group's overflow area (tail counter + record slots)."""
    if capacity_records < 0:
        raise ValueError(
            f"capacity_records must be >= 0, got {capacity_records}")
    return OVERFLOW_TAIL_BYTES + capacity_records * overflow_record_size(dim)


@dataclasses.dataclass(frozen=True)
class GroupPlan:
    """Placement of one group: two clusters around a shared overflow.

    ``second_cluster_id`` is ``None`` for a trailing odd group that holds a
    single cluster (it still gets its own overflow area).
    """

    group_id: int
    base_offset: int
    first_cluster_id: int
    first_nbytes: int
    second_cluster_id: int | None
    second_nbytes: int | None
    overflow_offset: int
    capacity_records: int
    overflow_area_bytes: int

    @property
    def first_offset(self) -> int:
        """Offset of the first cluster's blob."""
        return self.base_offset

    @property
    def second_offset(self) -> int:
        """Offset of the second cluster's blob (just past the overflow)."""
        return self.overflow_offset + self.overflow_area_bytes

    @property
    def end_offset(self) -> int:
        """One past the last byte of the group."""
        if self.second_nbytes is None:
            return self.overflow_offset + self.overflow_area_bytes
        return self.second_offset + self.second_nbytes


def place_group(group_id: int, base_offset: int, first: tuple[int, int],
                second: tuple[int, int] | None, dim: int,
                capacity_records: int) -> GroupPlan:
    """The placement rule, shared by the offline build and a rebuild's
    relocation: ``[first blob | pad | overflow area | second blob]`` from
    ``base_offset``, with ``first`` / ``second`` as ``(cluster_id, blob
    bytes)``.  The area leads with a u64 tail counter that remote FAA/CAS
    target and RDMA atomics require natural alignment: the pad is the
    ``< 8`` bytes that 8-align it.
    """
    overflow_offset = base_offset + first[1]
    overflow_offset += (-overflow_offset) % 8
    return GroupPlan(
        group_id=group_id,
        base_offset=base_offset,
        first_cluster_id=first[0],
        first_nbytes=first[1],
        second_cluster_id=second[0] if second else None,
        second_nbytes=second[1] if second else None,
        overflow_offset=overflow_offset,
        capacity_records=capacity_records,
        overflow_area_bytes=overflow_area_size(dim, capacity_records),
    )


def plan_groups(sizes: Iterable[tuple[int, int]], dim: int,
                capacity_records: int,
                start_offset: int) -> tuple[list[GroupPlan],
                                            list[ClusterEntry],
                                            list[GroupEntry]]:
    """Lay out cluster blobs into adjacent-pair groups.

    Parameters
    ----------
    sizes:
        ``(cluster_id, blob size in bytes)`` in cluster-id order; cluster
        ids must be ``0..len-1`` (dense) so metadata entries index
        directly.  Placement needs only sizes, so the engine can plan the
        whole layout while streaming actual blobs one at a time.
    start_offset:
        First byte after the reserved metadata area.

    Returns
    -------
    ``(plans, cluster_entries, group_entries)`` where the entry lists are
    indexed by cluster id / group id respectively.
    """
    plans: list[GroupPlan] = []
    cluster_entries: list[ClusterEntry] = []
    group_entries: list[GroupEntry] = []
    cursor = start_offset
    pending: tuple[int, int] | None = None

    def close_group(first: tuple[int, int],
                    second: tuple[int, int] | None) -> None:
        nonlocal cursor
        plan = place_group(len(plans), cursor, first, second, dim,
                           capacity_records)
        plans.append(plan)
        cluster_entries.append(ClusterEntry(
            blob_offset=plan.first_offset,
            blob_length=first[1],
            group_id=plan.group_id))
        if second is not None:
            cluster_entries.append(ClusterEntry(
                blob_offset=plan.second_offset,
                blob_length=second[1],
                group_id=plan.group_id))
        group_entries.append(GroupEntry(
            overflow_offset=plan.overflow_offset,
            capacity_records=capacity_records))
        cursor = plan.end_offset

    expected = 0
    for cluster_id, nbytes in sizes:
        if cluster_id != expected:
            raise LayoutError("cluster ids must be dense and ordered")
        expected += 1
        if pending is None:
            pending = (cluster_id, nbytes)
        else:
            close_group(pending, (cluster_id, nbytes))
            pending = None
    if pending is not None:
        close_group(pending, None)
    return plans, cluster_entries, group_entries


def cluster_read_extent(metadata: GlobalMetadata,
                        cluster_id: int) -> tuple[int, int]:
    """The contiguous byte range covering a cluster *and* its whole
    overflow area (the *layout* invariant of the module docstring).

    For the first cluster of a group the range is
    ``[blob_offset, overflow_end)``; for the second it is
    ``[overflow_offset, blob_end)``.  Returns ``(offset, length)``.
    What a fetch actually posts is :func:`cluster_read_ranges`.
    """
    if not 0 <= cluster_id < metadata.num_clusters:
        raise LayoutError(f"cluster id {cluster_id} out of range")
    cluster = metadata.clusters[cluster_id]
    group = metadata.groups[cluster.group_id]
    area = overflow_area_size(metadata.dim, group.capacity_records)
    overflow_end = group.overflow_offset + area
    if cluster.blob_offset < group.overflow_offset:
        start = cluster.blob_offset
        end = overflow_end
    else:
        start = group.overflow_offset
        end = cluster.blob_offset + cluster.blob_length
    return start, end - start


def group_extent(metadata: GlobalMetadata, group_id: int) -> tuple[int, int]:
    """The ``(offset, length)`` span of a whole group — the union of its
    members' extents, ``[blob | area | blob]`` — which a rebuild reads as
    its snapshot and retires once the relocated copy is published."""
    extents = [cluster_read_extent(metadata, cid)
               for cid in metadata.group_members(group_id)]
    start = min(offset for offset, _ in extents)
    return start, max(offset + length for offset, length in extents) - start


def cluster_read_ranges(metadata: GlobalMetadata, cluster_id: int,
                        slots: int, merge_hole_bytes: float = 0
                        ) -> tuple[tuple[int, int], ...]:
    """The ``(offset, length)`` ranges one fetch of a cluster posts: its
    blob, the group's tail word and the first ``slots`` record slots
    (the *read* invariant of the module docstring).

    ``[blob | word | slots)`` is a contiguous prefix of a first (or
    unpaired) member's extent: one range.  A second member's
    ``[word | slots)`` and ``[blob]`` are separated by the slots not
    read: two ranges, posted as two WQEs of the same ring — unless that
    hole is no wider than ``merge_hole_bytes``, the width below which
    moving the hole is cheaper than the extra WQE under the caller's
    cost model; then the whole extent goes as one range.  ``slots`` past
    the capacity reads the whole area.  Whatever the shape, the tail word
    lies in the first range and the blob in the last.
    """
    if slots < 0:
        raise ValueError(f"slots must be >= 0, got {slots}")
    if not 0 <= cluster_id < metadata.num_clusters:
        raise LayoutError(f"cluster id {cluster_id} out of range")
    cluster = metadata.clusters[cluster_id]
    group = metadata.groups[cluster.group_id]
    blob, word = cluster.blob_offset, group.overflow_offset
    live_end = overflow_slot_offset(word, metadata.dim,
                                    min(slots, group.capacity_records))
    if blob < word:
        return ((blob, live_end - blob),)
    if blob - live_end <= merge_hole_bytes:
        return ((word, blob + cluster.blob_length - word),)
    return ((word, live_end - word), (blob, cluster.blob_length))


def overflow_delta_ranges(group: GroupEntry, dim: int, start: int,
                          tail: int, merge_hole_bytes: float = 0
                          ) -> tuple[tuple[int, int], ...]:
    """The ranges of one group's delta read: its tail word, then record
    slots ``[start, tail)``.

    The word rides along so that a cutover which sealed the area since
    the caller learned ``tail`` is seen before anything is grafted.  Two
    ranges, or one contiguous ``[word, tail)`` when the ``start`` slots
    between them are no wider than ``merge_hole_bytes``; either way the
    word is the first eight bytes of the first payload and the records
    are the last ``tail - start`` records of the last.
    """
    if not 0 <= start < tail <= group.capacity_records:
        raise ValueError(
            f"delta [{start}, {tail}) outside a {group.capacity_records}-"
            f"slot area")
    word, word_bytes = overflow_tail_extent(group)
    first = overflow_slot_offset(word, dim, start)
    end = overflow_slot_offset(word, dim, tail)
    if first - (word + word_bytes) <= merge_hole_bytes:
        return ((word, end - word),)
    return ((word, word_bytes), (first, end - first))
