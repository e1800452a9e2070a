"""Decoder stage: fetched extents to :class:`CachedCluster` entries.

Splits a cluster's contiguous read extent into the serialized sub-HNSW
blob and the group's overflow area and deserializes both.  Owns the
simulation-only retention of decoded bases; the simulated CPU cost of a
decode is posted by the wave loop, which knows when a READ is in flight.
"""

from __future__ import annotations

from repro.core.cache import CachedCluster
from repro.errors import LayoutError
from repro.layout.group_layout import (
    live_overflow_count,
    unpack_overflow_area,
)
from repro.layout.serializer import deserialize_cluster

__all__ = ["Decoder"]


class Decoder:
    """Deserializes fetched extents, retaining each cluster's decoded base."""

    def __init__(self, host) -> None:
        self.host = host
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
        drop them when that memory is damaged or rewritten in place
        (chaos harness, replica repair) so stale bytes cannot resurface
        through the memo.
        """
        self._bases.clear()

    def decode_extent(self, cluster_id: int, extent_offset: int,
                      payload: "bytes | memoryview") -> CachedCluster:
        """Split a fetched extent into blob + overflow and deserialize.

        The blob is deserialized once per *extent epoch* — ``(group
        version, blob offset, blob length)``, which names the bytes: an
        extent is written once, before the cutover that publishes it, and
        can be recycled only after a later cutover of the same group has
        bumped the stamp and every reader has observed it.  A cluster's
        slot is replaced when its epoch moves, so at most one base per
        cluster is held and none is served past its extent's retirement.
        The overflow tail is parsed on every call.  The caller charges
        the simulated cost on every call either way, since a real compute
        instance re-parses every fetch.  A cutover that sealed the extent
        between the metadata refresh and the READ surfaces as a retryable
        ``StaleReadError`` before anything retained is consulted.

        Zero-copy: a ``memoryview`` payload is sliced, never materialized
        — the decoded index's vector store is a frozen NumPy view over
        the payload's memory (see :func:`deserialize_cluster`).
        """
        host = self.host
        cluster = host.metadata.clusters[cluster_id]
        group = host.metadata.groups[cluster.group_id]
        area_start = group.overflow_offset - extent_offset
        count = live_overflow_count(payload, group.capacity_records,
                                    f"extent of cluster {cluster_id}",
                                    offset=area_start)
        epoch = (group.version, cluster.blob_offset, cluster.blob_length)
        base = self._bases.get(cluster_id)
        if base is None or base.extent_epoch != epoch:
            blob_start = cluster.blob_offset - extent_offset
            index, parsed_cid = deserialize_cluster(
                payload[blob_start:blob_start + cluster.blob_length],
                host.config.sub_params)
            if parsed_cid != cluster_id:
                raise LayoutError(
                    f"extent for cluster {cluster_id} contained blob of "
                    f"cluster {parsed_cid} — stale offsets?")
            base = self._bases[cluster_id] = CachedCluster(
                cluster_id=cluster_id, index=index, overflow=[],
                overflow_tail=0, extent_epoch=epoch, nbytes=len(payload))
        # Every entry gets its own overflow list: cache-side tail
        # refreshes extend it in place.
        return CachedCluster(
            cluster_id=cluster_id, index=base.index,
            overflow=unpack_overflow_area(payload[area_start:],
                                          host.metadata.dim, count,
                                          cluster_id),
            overflow_tail=count, extent_epoch=epoch, nbytes=len(payload),
            labels=base.labels)
