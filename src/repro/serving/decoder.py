"""Decoder stage: fetched ranges to :class:`CachedCluster` entries.

Finds the serialized sub-HNSW blob, the group's tail word and the record
slots in the ranges a fetch brought in
(:func:`~repro.layout.group_layout.cluster_read_ranges`) and deserializes
them.  Owns the simulation-only retention of decoded bases; the live
tail each decode finds goes to the context
(:meth:`~repro.core.context.ClientContext.note_tail`), from which the
fetcher sizes its next read.  The simulated CPU cost of a decode is
posted by the wave loop, which knows when a READ is in flight.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.cache import CachedCluster
from repro.core.config import SUB_PARAMS
from repro.errors import LayoutError
from repro.layout.group_layout import (
    OVERFLOW_TAIL_BYTES,
    live_overflow_count,
    unpack_overflow_area,
)
from repro.layout.serializer import deserialize_cluster, overflow_record_size

__all__ = ["Decoder"]


class Decoder:
    """Deserializes fetched ranges, retaining each cluster's decoded base."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        # Simulation-only retention: per cluster, the entry (empty
        # overflow) decoded from its current base extent.  A write changes
        # the tail, a rebuild changes one group's extents — neither changes
        # another cluster's blob bytes, so its deserialized graph is kept.
        # The *simulated* deserialization cost is charged on every fetch
        # regardless; this just keeps the simulator's wall-clock time
        # proportional to unique blobs rather than total fetches.
        self._bases: dict[int, CachedCluster] = {}

    def drop_memo(self) -> None:
        """Forget retained bases (no simulated-cost effect).

        Retained entries hold zero-copy views over remote region memory;
        drop them when that memory is damaged in place (the chaos harness
        does, before it bit-rots a replica) so stale bytes cannot
        resurface through the memo.  Replica repair does not call it.
        """
        self._bases.clear()

    def decode_extent(self, cluster_id: int,
                      ranges: Sequence[tuple[int, int]],
                      payloads: Sequence["bytes | memoryview"]
                      ) -> CachedCluster:
        """Deserialize one fetched cluster from the ``ranges`` read for it.

        The tail word in the payload decides how many records are live; a
        sealed word — a cutover retired the extent between the metadata
        refresh and the READ — surfaces as a retryable ``StaleReadError``
        before anything retained is consulted.  The entry holds the live
        records the payload carries: ``overflow_tail`` is the live count,
        or the number of slots read when that is smaller (slots past the
        live count are never parsed; the fetcher tops a short entry up
        from the context's ``tail_seen`` before admitting it).

        The blob is deserialized once per *extent epoch* — ``(group
        version, blob offset, blob length)``, which names the bytes: an
        extent is written once, before the cutover that publishes it, and
        can be recycled only after a later cutover of the same group has
        bumped the stamp and every reader has observed it.  A cluster's
        slot is replaced when its epoch moves, so at most one base per
        cluster is held and none is served past its extent's retirement.
        The caller charges the simulated cost on every call either way,
        since a real compute instance re-parses every fetch.

        Zero-copy: a ``memoryview`` payload is sliced, never materialized
        — the decoded index's vector store is a frozen NumPy view over
        the payload's memory (see :func:`deserialize_cluster`).
        """
        ctx = self.ctx
        metadata = ctx.metadata
        cluster = metadata.clusters[cluster_id]
        group = metadata.groups[cluster.group_id]
        # ``cluster_read_ranges`` puts the tail word in the first range
        # and the blob in the last.
        area = payloads[0]
        area_start = group.overflow_offset - ranges[0][0]
        blob_start = cluster.blob_offset - ranges[-1][0]
        if (area_start < 0 or blob_start < 0
                or area_start + OVERFLOW_TAIL_BYTES > len(area)
                or blob_start + cluster.blob_length > len(payloads[-1])):
            raise LayoutError(
                f"ranges {list(ranges)} fetched for cluster {cluster_id} "
                f"miss its tail word or its blob — stale offsets?")
        count = live_overflow_count(area, group.capacity_records,
                                    f"extent of cluster {cluster_id}",
                                    offset=area_start)
        ctx.note_tail(cluster.group_id, count)
        carried = ((len(area) - area_start - OVERFLOW_TAIL_BYTES)
                   // overflow_record_size(metadata.dim))
        parsed = min(count, carried)
        epoch = (group.version, cluster.blob_offset, cluster.blob_length)
        base = self._bases.get(cluster_id)
        if base is None or base.extent_epoch != epoch:
            index, parsed_cid = deserialize_cluster(
                payloads[-1][blob_start:blob_start + cluster.blob_length],
                SUB_PARAMS)
            if parsed_cid != cluster_id:
                raise LayoutError(
                    f"extent for cluster {cluster_id} contained blob of "
                    f"cluster {parsed_cid} — stale offsets?")
            base = self._bases[cluster_id] = CachedCluster(
                cluster_id=cluster_id, index=index, overflow=[],
                overflow_tail=0, extent_epoch=epoch, nbytes=0)
        # Every entry gets its own overflow list: tail top-ups extend it
        # in place.
        return CachedCluster(
            cluster_id=cluster_id, index=base.index,
            overflow=unpack_overflow_area(area[area_start:],
                                          metadata.dim, parsed,
                                          cluster_id),
            overflow_tail=parsed, extent_epoch=epoch,
            nbytes=sum(map(len, payloads)),
            labels=base.labels)
