"""Fetcher stage: cluster extents from remote memory to decoded entries.

All remote bytes the serving path touches flow through this stage, and it
speaks only :class:`repro.transport.base.Transport` verbs — never the raw
queue pair.  A fetch reads what is live, not what is reserved: the blob,
the tail word and as many record slots as the group's last seen tail plus
:data:`TAIL_SLACK_SLOTS` (``layout.group_layout.cluster_read_ranges``);
the word in the payload then says whether that was enough, and
:meth:`Fetcher.top_up` brings in what was not.  Every cluster READ is
posted with :meth:`Fetcher.issue_async` and taken in with
:meth:`Fetcher.poll`; the tail words that validate cache hits ride in the
same READ, and :meth:`Fetcher.issue_top_up` posts the delta ring of the
hits they show lagging.  The fetcher also offers what it fetched to the
cache (which admits or streams it by frequency x bytes).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from repro.core.cache import CachedCluster
from repro.layout.group_layout import (
    cluster_read_ranges,
    live_overflow_count,
    overflow_delta_ranges,
    overflow_tail_extent,
)
from repro.layout.serializer import (
    overflow_record_size,
    unpack_overflow_records,
)
from repro.serving.decoder import Decoder
from repro.serving.trace import TraceContext, span
from repro.transport import PendingRead, ReadDescriptor

__all__ = ["Fetcher", "TAIL_SLACK_SLOTS"]

#: Record slots a fetch reads past the group's last seen tail.  Priced
#: from the cost model's defaults: a spare 128-d slot is 524 B, ~0.09 µs
#: of wire + deserialize on every fetch; a record that landed beyond the
#: slots read costs a delta ring, >= 2.3 µs on the wave's critical path.
#: Four slots make the ring rare under a write-heavy mix (``churn_mixed``:
#: ~0.3 writes land in a group between two reads of it; the sweep is in
#: CHANGES.md, PR 17) for ~0.4 µs per fetch.
TAIL_SLACK_SLOTS = 4

#: One fetched cluster: ``(cluster id, ranges read for it)``; a READ's
#: payloads line up with the ranges of all its extents, flattened.
Extent = tuple[int, tuple[tuple[int, int], ...]]


class Delta(NamedTuple):
    """A delta ring: what lags, and what to read to catch it up."""

    #: ``(group id, entry)`` of every lagging entry.
    lagging: list[tuple[int, CachedCluster]]
    #: Per stale group, in group order: ``(start, live tail, ranges)``.
    deltas: dict[int, tuple[int, int, tuple[tuple[int, int], ...]]]
    descriptors: list[ReadDescriptor]


def _pieces(payloads: list, shapes: Iterable[Sequence]) -> Iterable[list]:
    """Split one READ's flat ``payloads`` back into runs as long as each
    of ``shapes`` (the ranges posted per cluster, or per group)."""
    taken = 0
    for ranges in shapes:
        yield payloads[taken:taken + len(ranges)]
        taken += len(ranges)


class Fetcher:
    """Loads cluster extents through the transport and admits them."""

    def __init__(self, host, decoder: Decoder) -> None:
        self.host = host
        self.decoder = decoder

    # -- descriptor construction ----------------------------------------
    def merge_hole_bytes(self) -> float:
        """Widest hole worth reading through rather than posting one more
        WQE: what that WQE costs under the client's scheme (a PCIe fetch
        in a doorbell ring, a whole round trip without) over what a byte
        costs to move and deserialize."""
        host = self.host
        cost = host.cost_model
        wqe_us = cost.pcie_us_per_wqe
        if not host.policy.doorbell_batching:
            wqe_us += cost.base_rtt_us
        return wqe_us / (cost.transfer_us(1) + cost.deserialize_us(1))

    def _descriptors(self, ranges: Iterable[tuple[int, int]]
                     ) -> list[ReadDescriptor]:
        layout = self.host.layout
        rkey, base = layout.rkey, layout.addr(0)
        return [ReadDescriptor(rkey, base + offset, length)
                for offset, length in ranges]

    def _read_ranges(self, cluster_id: int, merge: float
                     ) -> tuple[tuple[int, int], ...]:
        metadata = self.host.metadata
        return cluster_read_ranges(
            metadata, cluster_id,
            self.decoder.tail_seen(metadata.clusters[cluster_id].group_id)
            + TAIL_SLACK_SLOTS, merge)

    def extent_descriptors(self, cluster_ids: Sequence[int]
                           ) -> tuple[list[ReadDescriptor], list[Extent]]:
        """READ descriptors + extents for a set of clusters."""
        merge = self.merge_hole_bytes()
        extents = [(cid, self._read_ranges(cid, merge))
                   for cid in cluster_ids]
        return self._descriptors(
            piece for _, ranges in extents for piece in ranges), extents

    def fetch_bytes(self, cluster_id: int) -> int:
        """Bytes a fetch of ``cluster_id`` would read now: what
        :meth:`extent_descriptors` posts for it, and the ``nbytes`` the
        cache charges its decoded entry (the planner sizes byte-capped
        waves by it)."""
        return sum(length for _, length in self._read_ranges(
            cluster_id, self.merge_hole_bytes()))

    # -- fetch ------------------------------------------------------------
    def issue_async(self, cluster_ids: Sequence[int], doorbell: bool,
                    tail_groups: Sequence[int] = ()
                    ) -> tuple[PendingRead, list[Extent]]:
        """Issue a non-blocking doorbell fetch; pair with :meth:`poll`.

        The tail words of ``tail_groups`` ride in the same ring, ahead of
        the extents: their payloads come first (:meth:`note_tails`)."""
        metadata = self.host.metadata
        descriptors, extents = self.extent_descriptors(cluster_ids)
        words = self._descriptors(overflow_tail_extent(metadata.groups[gid])
                                  for gid in tail_groups)
        token = self.host.transport.read_batch_async(words + descriptors,
                                                     doorbell=doorbell)
        return token, extents

    def poll(self, token: PendingRead,
             trace: TraceContext | None = None) -> list[bytes]:
        """Complete an async fetch, charging only the exposed wait."""
        with span(trace, "fetch"):
            return self.host.transport.poll(token)

    # -- cache admission --------------------------------------------------
    def offer(self, entries: Iterable[CachedCluster]) -> None:
        """Offer one wave's fetched entries to the cache.  An admitted
        entry stays pinned until the whole wave is offered so that none
        is the victim of a sibling's admission: the wave searches every
        entry it loaded."""
        cache = self.host.cache
        now_us = self.host.node.clock.now_us
        admitted = []
        try:
            for entry in entries:
                if cache.put(entry, now_us=now_us) is not None:
                    cache.pin(entry)
                    admitted.append(entry)
        finally:
            for entry in admitted:
                cache.unpin(entry)

    # -- wave loading -----------------------------------------------------
    def admit(self, extents: list[Extent], payloads: list[bytes],
              execution, trace: TraceContext | None = None
              ) -> dict[int, CachedCluster]:
        """Decode fetched extents, top up the ones that ran short, count
        them and their decode cost on ``execution`` (the wave loop charges
        it; a top-up ring is decoded with the first extent), and offer
        them to the cache (admitted or streamed, each is searched in this
        batch)."""
        host = self.host
        deserialize_us = host.cost_model.deserialize_us
        loaded: dict[int, CachedCluster] = {}
        with span(trace, "decode"):
            for (cid, ranges), pieces in zip(extents, _pieces(
                    payloads, (ranges for _, ranges in extents))):
                entry = loaded[cid] = self.decoder.decode_extent(
                    cid, ranges, pieces)
                # Fresh from the decoder, ``nbytes`` is the bytes fetched.
                execution.decode_backlog.append(
                    (cid, deserialize_us(entry.nbytes)))
        topped_up = self.top_up(loaded.values(), trace)
        if loaded:
            execution.decode_backlog.append(
                (extents[0][0], deserialize_us(topped_up)))
        execution.fetched += len(loaded)
        if host.policy.query_aware_loading:
            self.offer(loaded.values())
        return loaded

    # -- overflow freshness ------------------------------------------------
    def note_tails(self, group_ids: Sequence[int],
                   payloads: Sequence["bytes | memoryview"]) -> None:
        """Remember the live tails the words of ``group_ids`` carry (the
        first of ``payloads``, one word each)."""
        metadata = self.host.metadata
        for gid, payload in zip(group_ids, payloads):
            # A sealed tail means the group was relocated by a cutover
            # after this plan's metadata refresh; never graft records
            # from a retired epoch onto cached entries.
            self.decoder.note_tail(gid, live_overflow_count(
                payload, metadata.groups[gid].capacity_records,
                f"overflow tail of group {gid}"))

    def top_up(self, entries: Iterable[CachedCluster],
               trace: TraceContext | None = None) -> int:
        """Graft onto ``entries`` the records between their own tail and
        the live tail last seen for their group; returns the bytes read.

        One ring for all of them, one delta per group however many of its
        members lag (:func:`~repro.layout.group_layout.overflow_delta_ranges`).
        Blocking, for fetched extents whose slots ran short (cached
        entries a peer's insert left behind take :meth:`issue_top_up`).
        Each delta re-reads its
        group's tail word: a cutover since the tail was learned is a
        retryable ``StaleReadError``, never a graft from the retired area.
        """
        delta = self.delta(entries)
        if delta is None:
            return 0
        with span(trace, "fetch"):
            payloads = self.host.transport.read_batch(
                delta.descriptors, doorbell=self.host.policy.doorbell_batching)
        return self.graft(delta, payloads)

    def issue_top_up(self, entries: Iterable[CachedCluster]
                     ) -> "tuple[PendingRead, Delta] | None":
        """:meth:`top_up` without waiting: the ring is posted, and
        :meth:`graft` takes its payloads once it has landed."""
        delta = self.delta(entries)
        if delta is None:
            return None
        return self.host.transport.read_batch_async(
            delta.descriptors,
            doorbell=self.host.policy.doorbell_batching), delta

    def delta(self, entries: Iterable[CachedCluster]) -> "Delta | None":
        """The delta ring ``entries`` need, or None when none lags."""
        host = self.host
        metadata = host.metadata
        tail_seen = self.decoder.tail_seen
        lagging: list[tuple[int, CachedCluster]] = []
        starts: dict[int, int] = {}
        for entry in entries:
            gid = metadata.clusters[entry.cluster_id].group_id
            if entry.overflow_tail < tail_seen(gid):
                lagging.append((gid, entry))
                starts[gid] = min(starts.get(gid, entry.overflow_tail),
                                  entry.overflow_tail)
        if not lagging:
            return None
        merge = self.merge_hole_bytes()
        # Per stale group, in group order: (start, live tail, ranges).
        deltas = {gid: (start, tail_seen(gid), overflow_delta_ranges(
            metadata.groups[gid], metadata.dim, start, tail_seen(gid), merge))
                  for gid, start in sorted(starts.items())}
        return Delta(lagging, deltas, self._descriptors(
            piece for *_, ranges in deltas.values() for piece in ranges))

    def graft(self, delta: "Delta", payloads: list) -> int:
        """Graft a landed delta ring onto its lagging entries; returns the
        bytes it read."""
        metadata = self.host.metadata
        dim = metadata.dim
        record_size = overflow_record_size(dim)
        records: dict[int, "bytes | memoryview"] = {}
        for (gid, (start, tail, _)), pieces in zip(
                delta.deltas.items(),
                _pieces(payloads, (ranges for *_, ranges
                                   in delta.deltas.values()))):
            live_overflow_count(pieces[0],
                                metadata.groups[gid].capacity_records,
                                f"overflow tail of group {gid}")
            records[gid] = pieces[-1][-(tail - start) * record_size:]
        for gid, entry in delta.lagging:
            start, tail, _ = delta.deltas[gid]
            missing = tail - entry.overflow_tail
            entry.overflow.extend(unpack_overflow_records(
                records[gid][(entry.overflow_tail - start) * record_size:],
                dim, missing, entry.cluster_id))
            entry.overflow_tail = tail
            self.host.cache.grow(entry, missing * record_size,
                                 self.host.node.clock.now_us)
        return sum(map(len, payloads))
