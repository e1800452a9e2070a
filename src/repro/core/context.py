"""The per-client context every serving and mutation stage is built from.

A compute instance reaches the memory pool only through one-sided verbs
on one registered region (§3).  :class:`ClientContext` is one client's
view of it: the handles its stages read, the two cells written after
construction (the transport, which ``DHnswClient.transport``'s setter
writes so a decorator installed late reaches every stage, and the
metadata view), and the region verbs that turn offsets into ``(rkey,
base + offset)`` verbs on ``self.transport`` at each call.  It also
keeps what the client remembers between requests: each group's live
tail last seen, the grace-period observer token, and one request-id
counter for reads and writes alike.  A test can build it, and every
stage, without a client.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from repro.core.baselines import SchemePolicy
from repro.core.cache import ClusterCache
from repro.core.config import DHnswConfig
from repro.core.engine import RemoteLayout
from repro.core.meta_index import MetaHnsw
from repro.layout.metadata import GlobalMetadata
from repro.mutation.writer import MutationStats
from repro.rdma.compute_node import ComputeNode
from repro.rdma.network import CostModel
from repro.transport import ReadDescriptor, Transport, WriteDescriptor

__all__ = ["ClientContext"]


class ClientContext:
    """What one client's stages use, and how it addresses the pool."""

    def __init__(self, layout: RemoteLayout, meta: MetaHnsw,
                 config: DHnswConfig, policy: SchemePolicy,
                 cost_model: CostModel, node: ComputeNode,
                 cache: ClusterCache, transport: Transport) -> None:
        self.layout = layout
        self.meta = meta
        self.config = config
        self.policy = policy
        self.cost_model = cost_model
        self.node = node
        self.cache = cache
        #: The ready-list loop's look-ahead: ``config.pipeline_waves``
        #: under a query-aware scheme.
        self.lookahead = config.pipeline_waves and policy.query_aware_loading
        #: The transport every verb goes through; reassign to decorate.
        self.transport = transport
        #: Write-side counters; grace-period reclaim adds to them too.
        self.mutation_stats = MutationStats()
        self._rkey = layout.rkey
        self._base = layout.addr(0)
        # Per group: (group version, live tail) of the last tail word this
        # client saw.  A hint only — it sizes the next read, and the word
        # inside that read's payload overrules it.
        self._tails: dict[int, tuple[int, int]] = {}
        # Grace-period registration is lazy (first observed version), so
        # an idle client pins nothing.
        self._observer_token: int | None = None
        self._request_ids = itertools.count(1)
        #: This client's view of the metadata block (one READ at startup).
        self.metadata = self.read_metadata()

    def next_request_id(self) -> int:
        """A fresh id for a read batch or a write, unique per client."""
        return next(self._request_ids)

    # -- region verbs -----------------------------------------------------
    def read(self, offset: int, length: int) -> "memoryview | bytes":
        """READ ``length`` bytes at region offset ``offset``."""
        return self.transport.read(self._rkey, self._base + offset, length)

    def write(self, offset: int, data) -> None:
        """WRITE ``data`` at region offset ``offset``."""
        self.transport.write(self._rkey, self._base + offset, data)

    def cas(self, offset: int, expected: int, desired: int) -> int:
        """Compare-and-swap the u64 at ``offset``; returns the prior."""
        return self.transport.cas(self._rkey, self._base + offset, expected,
                                  desired)

    def faa(self, offset: int, delta: int) -> int:
        """Fetch-and-add on the u64 at ``offset``; returns the prior."""
        return self.transport.faa(self._rkey, self._base + offset, delta)

    def read_descriptors(self, ranges: Iterable[tuple[int, int]]
                         ) -> list[ReadDescriptor]:
        """One READ WQE per ``(offset, length)`` range."""
        rkey, base = self._rkey, self._base
        return [ReadDescriptor(rkey, base + offset, length)
                for offset, length in ranges]

    def write_descriptors(self, writes: Iterable[tuple[int, object]]
                          ) -> list[WriteDescriptor]:
        """One WRITE WQE per ``(offset, data)`` pair."""
        rkey, base = self._rkey, self._base
        return [WriteDescriptor(rkey, base + offset, data)
                for offset, data in writes]

    def read_metadata(self) -> GlobalMetadata:
        """READ and decode the authoritative metadata block."""
        return GlobalMetadata.unpack(self.read(0, self.layout.metadata_nbytes))

    # -- live-tail memory -------------------------------------------------
    def note_tail(self, group_id: int, tail: int) -> None:
        """Remember ``tail`` as the live record count last seen for the
        group at its current version."""
        self._tails[group_id] = (self.metadata.groups[group_id].version,
                                 tail)

    def tail_seen(self, group_id: int) -> int:
        """The live tail last seen for the group's *current* version; 0
        for a group never read or rebuilt since (its area restarts)."""
        version, tail = self._tails.get(group_id, (None, 0))
        return tail if version == self.metadata.groups[group_id].version else 0

    # -- metadata freshness -----------------------------------------------
    def refresh_metadata(self) -> bool:
        """Peek the remote version; re-read the block if it moved.

        Returns True when a refresh happened.  Staleness is resolved at
        *group* granularity: only the members of groups whose version
        stamp advanced (plus any cluster whose entry changed) are
        invalidated, so one group's rebuild never evicts the rest of the
        cache.  Every refresh also reports the observed version to the
        deployment's grace-period ledger — the pin that keeps retired
        extents alive until every reader has moved past them.
        """
        remote_version = GlobalMetadata.peek_version(self.read(0, 16))
        if remote_version == self.metadata.version:
            self.observe_version(self.metadata.version)
            return False
        self.adopt_metadata(self.read_metadata())
        return True

    def adopt_metadata(self, fresh: GlobalMetadata) -> None:
        """Serve from ``fresh`` from now on.

        Every cluster whose entry or group version changed is invalidated
        *before* the version is observed: observing it may hand the old
        extents, which those entries' zero-copy views alias, back to the
        allocator.  A refresh and a rebuild's cutover both adopt here, so
        a cutover whose re-read block carries a peer's rebuild of another
        group drops that group's members too.
        """
        stale_groups = {
            gid for gid, (old, new) in enumerate(zip(self.metadata.groups,
                                                     fresh.groups))
            if old.version != new.version}
        for cid, (old, new) in enumerate(zip(self.metadata.clusters,
                                             fresh.clusters)):
            if old != new or new.group_id in stale_groups:
                self.cache.invalidate(cid)
        self.metadata = fresh
        self.observe_version(fresh.version)

    def observe_version(self, version: int) -> None:
        """Report an observed metadata version to the grace-period ledger.

        Registers this client lazily on first call; any extent whose grace
        period just elapsed is returned to the allocator immediately.
        """
        log = self.layout.retired
        if self._observer_token is None:
            self._observer_token = log.register(version)
        else:
            log.observe(self._observer_token, version)
        freed = log.reclaim(self.layout.allocator)
        if freed:
            self.mutation_stats.reclaimed_bytes += freed

    def close(self) -> None:
        """Release the grace-period pin (idempotent)."""
        if self._observer_token is not None:
            self.layout.retired.deregister(self._observer_token)
            self._observer_token = None
