"""Decoder stage: fetched extents to :class:`CachedCluster` entries.

Splits a cluster's contiguous read extent into the serialized sub-HNSW
blob and the group's overflow area and deserializes both.  Owns the
simulation-only decode memoization; the simulated CPU cost of a decode is
posted by the wave loop, which knows when a READ is in flight.
"""

from __future__ import annotations

import dataclasses

from repro.core.cache import CachedCluster
from repro.errors import LayoutError
from repro.layout.group_layout import (
    live_overflow_count,
    unpack_overflow_area,
)
from repro.layout.serializer import deserialize_cluster

__all__ = ["Decoder"]


class Decoder:
    """Deserializes fetched extents, memoizing by content identity."""

    def __init__(self, host) -> None:
        self.host = host
        # Simulation-only memoization of blob decoding, keyed by
        # (cluster, metadata version, overflow tail).  The *simulated*
        # deserialization cost is charged on every fetch regardless; this
        # just keeps the simulator's wall-clock time proportional to
        # unique blobs rather than total fetches.
        self._decode_cache: dict[tuple[int, int, int], CachedCluster] = {}

    def drop_memo(self) -> None:
        """Forget memoized decodes (no simulated-cost effect).

        Memoized entries hold zero-copy views over remote region memory;
        drop them when that memory is damaged or rewritten in place
        (chaos harness, replica repair) so stale bytes cannot resurface
        through the memo.
        """
        self._decode_cache.clear()

    def decode_extent(self, cluster_id: int, extent_offset: int,
                      payload: "bytes | memoryview") -> CachedCluster:
        """Split a fetched extent into blob + overflow and deserialize.

        Memoized on (cluster, version, overflow tail) purely to keep
        simulator wall-clock bounded; the caller charges the simulated
        cost on every call, since a real compute instance re-parses every
        fetch.  A cutover that sealed the extent between the metadata
        refresh and the READ surfaces as a retryable ``StaleReadError``
        rather than a decode against retired offsets.

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
        key = (cluster_id, host.metadata.version, count)
        memoized = self._decode_cache.get(key)
        if memoized is None:
            blob_start = cluster.blob_offset - extent_offset
            index, parsed_cid = deserialize_cluster(
                payload[blob_start:blob_start + cluster.blob_length],
                host.config.sub_params)
            # Sub-HNSWs are frozen after deserialization; bind them to this
            # client's engine choice so benchmarks can compare both paths.
            index.prefer_compiled = host.compiled_engine
            if parsed_cid != cluster_id:
                raise LayoutError(
                    f"extent for cluster {cluster_id} contained blob of "
                    f"cluster {parsed_cid} — stale offsets?")
            own = [record for record in unpack_overflow_area(
                       payload[area_start:], host.metadata.dim, count)
                   if record.cluster_id == cluster_id]
            memoized = CachedCluster(
                cluster_id=cluster_id, index=index, overflow=own,
                overflow_tail=count, metadata_version=host.metadata.version,
                nbytes=len(payload))
            if len(self._decode_cache) > 2 * max(
                    64, host.metadata.num_clusters):
                self._decode_cache.clear()
            self._decode_cache[key] = memoized
        # Hand out a private copy of the mutable parts so cache-side
        # overflow refreshes never alias the memoized entry.
        return dataclasses.replace(memoized, overflow=list(memoized.overflow))
