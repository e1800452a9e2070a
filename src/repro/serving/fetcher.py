"""Fetcher stage: cluster extents from remote memory to decoded entries.

All remote bytes the serving path touches flow through this stage, and it
speaks only :class:`repro.transport.base.Transport` verbs — never the raw
queue pair.  The fetcher also owns cache admission (LRU + DRAM spill) and
the overflow-tail freshness check for cache hits, because both are
decisions about what was just fetched.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.cache import CachedCluster
from repro.core.query_planner import Wave
from repro.errors import LayoutError
from repro.layout.group_layout import (
    cluster_read_extent,
    live_overflow_count,
    overflow_slot_offset,
    overflow_tail_extent,
)
from repro.layout.serializer import (
    overflow_record_size,
    unpack_overflow_records,
)
from repro.serving.decoder import Decoder
from repro.serving.trace import TraceContext, span
from repro.transport import PendingRead, ReadDescriptor

__all__ = ["Fetcher"]


class Fetcher:
    """Loads cluster extents through the transport and admits them."""

    def __init__(self, host, decoder: Decoder) -> None:
        self.host = host
        self.decoder = decoder

    # -- descriptor construction ----------------------------------------
    def extent_descriptors(self, cluster_ids: Sequence[int]
                           ) -> tuple[list[ReadDescriptor],
                                      list[tuple[int, int, int]]]:
        """READ descriptors + ``(cid, offset, length)`` extents for a set
        of clusters (shared by the sync and async fetch paths)."""
        host = self.host
        descriptors = []
        extents = []
        for cid in cluster_ids:
            offset, length = cluster_read_extent(host.metadata, cid)
            descriptors.append(ReadDescriptor(
                host.layout.rkey, host.layout.addr(offset), length))
            extents.append((cid, offset, length))
        return descriptors, extents

    # -- synchronous / asynchronous fetch --------------------------------
    def read(self, cluster_ids: Sequence[int], doorbell: bool,
             trace: TraceContext | None = None
             ) -> tuple[list[tuple[int, int, int]], list[bytes]]:
        """Blocking READ of each cluster's contiguous extent (blob +
        overflow); returns ``(extents, payloads)``."""
        descriptors, extents = self.extent_descriptors(cluster_ids)
        with span(trace, "fetch"):
            return extents, self.host.transport.read_batch(
                descriptors, doorbell=doorbell)

    def issue_async(self, cluster_ids: Sequence[int], doorbell: bool
                    ) -> tuple[PendingRead, list[tuple[int, int, int]]]:
        """Issue a non-blocking doorbell fetch; pair with :meth:`poll`."""
        descriptors, extents = self.extent_descriptors(cluster_ids)
        token = self.host.transport.read_batch_async(descriptors,
                                                     doorbell=doorbell)
        return token, extents

    def poll(self, token: PendingRead,
             trace: TraceContext | None = None) -> list[bytes]:
        """Complete an async fetch, charging only the exposed wait."""
        with span(trace, "fetch"):
            return self.host.transport.poll(token)

    # -- cache admission --------------------------------------------------
    def cache_put(self, entry: CachedCluster,
                  count_miss: bool = True) -> None:
        """Insert into the cache, spilling LRU entries if DRAM is tight."""
        host = self.host
        while not host.node.reserve_dram(entry.nbytes):
            victim = host.cache.pop_lru()
            if victim is None:
                if len(host.cache):
                    # Every resident entry is pinned by in-flight compute:
                    # spilling one would free DRAM a search is reading
                    # right now.  Over-commit the budget
                    # transiently instead; pressure resolves once the
                    # pins drop and a later put evicts.
                    host.node.reserve_dram(entry.nbytes, force=True)
                    break
                raise LayoutError(
                    f"cluster {entry.cluster_id} ({entry.nbytes} B) cannot "
                    f"fit in compute DRAM even with an empty cache")
            host.node.release_dram(victim.nbytes)
        for victim in host.cache.put(entry, count_miss=count_miss):
            host.node.release_dram(victim.nbytes)

    # -- wave loading -----------------------------------------------------
    def admit(self, extents: list[tuple[int, int, int]],
              payloads: list[bytes], execution,
              trace: TraceContext | None = None,
              count_miss: bool = True) -> dict[int, CachedCluster]:
        """Decode fetched extents, count them and their decode cost on
        ``execution`` (the wave loop charges it), and cache them."""
        host = self.host
        loaded: dict[int, CachedCluster] = {}
        with span(trace, "decode"):
            for (cid, offset, _), payload in zip(extents, payloads):
                execution.decode_backlog_us += (
                    host.cost_model.deserialize_us(len(payload)))
                loaded[cid] = self.decoder.decode_extent(cid, offset,
                                                         payload)
        execution.fetched += len(loaded)
        if host.policy.use_cluster_cache:
            for entry in loaded.values():
                self.cache_put(entry, count_miss=count_miss)
        return loaded

    def take_hits(self, wave: Wave, execution,
                  trace: TraceContext | None = None
                  ) -> dict[int, CachedCluster]:
        """Consume a hit wave: validate overflow tails, then take entries
        from the cache, refetching any evicted in the meantime."""
        host = self.host
        hit_ids = sorted({cid for _, cid in wave.serviced})
        self.validate_cached(hit_ids, trace)
        entries: dict[int, CachedCluster] = {}
        for cid in hit_ids:
            entry = host.cache.get(cid)
            if entry is None:
                # Evicted between planning and execution (possible only
                # with pathological capacity 1): refetch — and re-insert,
                # or every later query of the batch refetches it again.
                # The failed ``get`` above already counted the miss.
                entry = self.admit(
                    *self.read([cid], host.policy.doorbell_batching, trace),
                    execution, trace, count_miss=False)[cid]
            else:
                execution.hit_count += 1
            entries[cid] = entry
        return entries

    # -- overflow freshness ------------------------------------------------
    def validate_cached(self, cluster_ids: list[int],
                        trace: TraceContext | None = None) -> None:
        """Check overflow tails of cached clusters; fetch record deltas.

        Tail counters are 8-byte READs, doorbell-batched under the full
        scheme, so observing concurrent inserts costs a fraction of a
        round trip per batch.
        """
        host = self.host
        by_group: dict[int, list[int]] = {}
        for cid in cluster_ids:
            if host.cache.peek(cid) is not None:
                by_group.setdefault(
                    host.metadata.clusters[cid].group_id, []).append(cid)
        if not by_group:
            return
        group_ids = sorted(by_group)
        descriptors = []
        for gid in group_ids:
            offset, length = overflow_tail_extent(host.metadata.groups[gid])
            descriptors.append(ReadDescriptor(
                host.layout.rkey, host.layout.addr(offset), length))
        with span(trace, "fetch"):
            payloads = host.transport.read_batch(
                descriptors, doorbell=host.policy.doorbell_batching)
        dim = host.metadata.dim
        for gid, payload in zip(group_ids, payloads):
            group = host.metadata.groups[gid]
            # A sealed tail means the group was relocated by a cutover
            # after this plan's metadata refresh; never graft records
            # from a retired epoch onto cached entries.
            tail = live_overflow_count(payload, group.capacity_records,
                                       f"overflow tail of group {gid}")
            for cid in by_group[gid]:
                entry = host.cache.peek(cid)
                if entry is None or entry.overflow_tail >= tail:
                    continue
                delta = tail - entry.overflow_tail
                with span(trace, "fetch"):
                    blob = host.transport.read(
                        host.layout.rkey,
                        host.layout.addr(overflow_slot_offset(
                            group.overflow_offset, dim,
                            entry.overflow_tail)),
                        delta * overflow_record_size(dim))
                entry.overflow.extend(
                    unpack_overflow_records(blob, dim, delta, cid))
                entry.overflow_tail = tail
