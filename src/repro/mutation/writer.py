"""The per-client mutation front end: insert, delete, batched insert.

:class:`MutationEngine` is the write-side sibling of
:class:`repro.serving.engine.ServingEngine`.  Every mutation follows the
paper's §3.2 protocol — route via the cached meta-HNSW, reserve an
overflow slot with one remote FAA, WRITE the packed record — extended
for *concurrent* writers:

* A reservation landing past capacity rolls back and triggers a
  :class:`~repro.mutation.rebuild.ShadowRebuild`; losing the rebuild's
  CAS leadership race means another writer is already rebuilding, so
  this one refreshes metadata and retries instead of duplicating work.
* A reservation landing on a *sealed* tail
  (:class:`repro.errors.GroupSealedError`) means a cutover relocated
  the group mid-flight; the writer rolls back, refreshes, and retries
  against the new location.  Both loops are bounded by
  ``_RETRY_LIMIT``.
* ``insert_batch`` reserves slot *runs* (one FAA per group per chunk)
  and may claim a run partially: a batch larger than the overflow
  capacity splits across multiple reservations with rebuilds in
  between, instead of failing outright.  Record WRITEs stay deferred
  and doorbell-batched; they are flushed before any rebuild so the
  snapshot observes every reserved record.

Each mutation carries a :class:`~repro.serving.trace.TraceContext`
(``last_mutation_trace`` on the client) with stages ``classify``,
``reserve``, ``write``, and — only when a rebuild runs — ``snapshot``,
``build``, ``publish``; a reader's trace never contains the mutation
stages, which is how the churn benchmark proves rebuild work stays out
of the read path.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import GroupSealedError, OverflowFullError
from repro.layout.group_layout import (decode_overflow_tail,
                                       overflow_slot_offset)
from repro.layout.serializer import (
    OverflowRecord,
    overflow_record_size,
    pack_overflow_record,
)
from repro.mutation.rebuild import ShadowRebuild
from repro.serving.trace import TraceContext, span
from repro.transport import WriteDescriptor

__all__ = ["InsertReport", "MutationEngine", "MutationStats"]

#: Retries of the reserve/rebuild loop when another writer wins a race
#: (rebuild leadership lost, or a reservation landed on a just-sealed
#: area); past it the write raises ``OverflowFullError``, never spins.
_RETRY_LIMIT = 8


@dataclasses.dataclass(frozen=True)
class InsertReport:
    """Outcome of one dynamic insertion (or logical deletion)."""

    global_id: int
    cluster_id: int
    overflow_slot: int
    triggered_rebuild: bool


@dataclasses.dataclass
class MutationStats:
    """Write-side counters for one client (telemetry surface)."""

    inserts: int = 0
    deletes: int = 0
    #: Group rebuilds this client led to completion.
    rebuilds_led: int = 0
    #: Rebuild attempts that lost the CAS leadership race and yielded.
    rebuilds_yielded: int = 0
    #: Late records a cutover migrated into the relocated overflow.
    records_migrated: int = 0
    #: Reservations that landed on a sealed tail and were retried.
    sealed_retries: int = 0
    #: Extra reservation chunks ``insert_batch`` needed beyond one per
    #: group (a batch splitting across rebuilds).
    batch_chunks: int = 0
    #: Bytes this client returned to the allocator past grace periods.
    reclaimed_bytes: int = 0


class MutationEngine:
    """Executes mutations for one client over the shared memory pool."""

    def __init__(self, host) -> None:
        self.host = host
        self.stats = MutationStats()
        #: Trace of the most recent mutation (None before the first).
        self.last_trace: TraceContext | None = None
        self._request_counter = 0

    # -- tracing ---------------------------------------------------------
    def _new_trace(self) -> TraceContext:
        trace = TraceContext(self._request_counter, self.host.node.clock,
                             self.host.node.stats)
        self._request_counter += 1
        self.last_trace = trace
        return trace

    # -- routing ---------------------------------------------------------
    def _classify(self, vector: np.ndarray,
                  trace: TraceContext) -> int:
        host = self.host
        with span(trace, "classify"):
            host.refresh_metadata()
            host.meta.reset_compute_counter()
            cluster_id = host.meta.classify(vector, ef=host.config.ef_meta)
            host.node.charge_compute(host.meta.reset_compute_counter(),
                                     host.meta.dim)
        return cluster_id

    # -- public mutations -------------------------------------------------
    def insert(self, vector: np.ndarray, global_id: int) -> InsertReport:
        """Insert one vector (FAA slot reservation + one WRITE)."""
        return self._mutate(vector, global_id, tombstone=False)

    def delete(self, vector: np.ndarray, global_id: int) -> InsertReport:
        """Logically delete ``global_id`` with a tombstone record."""
        return self._mutate(vector, global_id, tombstone=True)

    def _mutate(self, vector: np.ndarray, global_id: int,
                tombstone: bool) -> InsertReport:
        host = self.host
        vector = np.asarray(vector, dtype=np.float32).reshape(-1)
        trace = self._new_trace()
        cluster_id = self._classify(vector, trace)
        # Cluster->group membership is fixed at build time; only the
        # group's *location* moves, so re-reading the entry per attempt
        # suffices.
        group_id = host.metadata.clusters[cluster_id].group_id
        rebuilt = False
        slot: int | None = None
        for _ in range(_RETRY_LIMIT):
            try:
                slot = self._reserve_and_write(cluster_id, vector,
                                               global_id, tombstone, trace)
                break
            except GroupSealedError:
                self.stats.sealed_retries += 1
                host.refresh_metadata()
            except OverflowFullError:
                if self.rebuild_group(group_id, trace):
                    rebuilt = True
                else:
                    # Another writer leads the rebuild; adopt its result.
                    host.refresh_metadata()
        if slot is None:
            group = host.metadata.groups[group_id]
            raise OverflowFullError(group_id, group.capacity_records,
                                    overflow_record_size(host.metadata.dim))
        if tombstone:
            self.stats.deletes += 1
        else:
            self.stats.inserts += 1
        return InsertReport(global_id=global_id, cluster_id=cluster_id,
                            overflow_slot=slot, triggered_rebuild=rebuilt)

    def insert_batch(self, vectors: np.ndarray,
                     global_ids: list[int]) -> list[InsertReport]:
        """Insert many vectors with batched network operations.

        Vectors headed for the same group share FAA slot-run
        reservations, and record WRITEs across groups are
        doorbell-batched under the full d-HNSW scheme.  A run larger
        than the group's remaining (or even total) capacity is claimed
        partially and the remainder re-reserved after a rebuild, so any
        batch size succeeds as long as single inserts would.
        """
        host = self.host
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if vectors.shape[0] != len(global_ids):
            raise ValueError(
                f"{vectors.shape[0]} vectors but {len(global_ids)} ids")
        trace = self._new_trace()
        with span(trace, "classify"):
            host.refresh_metadata()
            host.meta.reset_compute_counter()
            cluster_ids = [host.meta.classify(vector,
                                              ef=host.config.ef_meta)
                           for vector in vectors]
            host.node.charge_compute(host.meta.reset_compute_counter(),
                                     host.meta.dim)

        by_group: dict[int, list[int]] = {}
        for row, cid in enumerate(cluster_ids):
            by_group.setdefault(
                host.metadata.clusters[cid].group_id, []).append(row)

        record_size = overflow_record_size(host.metadata.dim)
        reports: list[InsertReport | None] = [None] * len(global_ids)
        descriptors: list[WriteDescriptor] = []

        def flush() -> None:
            if descriptors:
                with span(trace, "write"):
                    host.transport.write_batch(
                        descriptors, doorbell=host.policy.doorbell_batching)
                descriptors.clear()

        for group_id in sorted(by_group):
            rows = by_group[group_id]
            cursor = 0
            chunks = 0
            flag_rebuild = False
            stalls = 0
            while cursor < len(rows):
                pending = rows[cursor:]
                sealed = False
                try:
                    slot0, claimed = self._reserve_run(
                        group_id, len(pending), trace)
                except GroupSealedError:
                    self.stats.sealed_retries += 1
                    sealed = True
                    claimed = 0
                if claimed == 0:
                    # Flush deferred WRITEs first: a rebuild's snapshot
                    # must observe every record already reserved.
                    flush()
                    if sealed:
                        # The group moved under us; adopt the new epoch.
                        host.refresh_metadata()
                    elif self.rebuild_group(group_id, trace):
                        # Overflow genuinely full -> lead a rebuild, then
                        # keep claiming the remainder of the run.
                        flag_rebuild = True
                    else:
                        host.refresh_metadata()
                    stalls += 1
                    if stalls > _RETRY_LIMIT:
                        group = host.metadata.groups[group_id]
                        raise OverflowFullError(
                            group_id, group.capacity_records,
                            len(pending) * record_size)
                    continue
                stalls = 0
                chunks += 1
                group = host.metadata.groups[group_id]
                for index, row in enumerate(pending[:claimed]):
                    slot = slot0 + index
                    cid = cluster_ids[row]
                    record = OverflowRecord(global_id=global_ids[row],
                                            cluster_id=cid,
                                            vector=vectors[row])
                    record_addr = host.layout.addr(overflow_slot_offset(
                        group.overflow_offset, host.metadata.dim, slot))
                    descriptors.append(WriteDescriptor(
                        host.layout.rkey, record_addr,
                        pack_overflow_record(record)))
                    self._patch_cached_entries(group_id, slot, record)
                    reports[row] = InsertReport(
                        global_id=global_ids[row], cluster_id=cid,
                        overflow_slot=slot,
                        triggered_rebuild=flag_rebuild and index == 0)
                flag_rebuild = False
                cursor += claimed
            if chunks > 1:
                self.stats.batch_chunks += chunks - 1
        flush()
        self.stats.inserts += sum(1 for report in reports
                                  if report is not None)
        return [report for report in reports if report is not None]

    # -- reservation protocol ---------------------------------------------
    def _reserve_and_write(self, cluster_id: int, vector: np.ndarray,
                           global_id: int, tombstone: bool = False,
                           trace: TraceContext | None = None) -> int:
        """Reserve one slot with FAA and WRITE the record into it."""
        host = self.host
        group_id = host.metadata.clusters[cluster_id].group_id
        group = host.metadata.groups[group_id]
        slot, claimed = self._reserve_run(group_id, 1, trace)
        if not claimed:
            raise OverflowFullError(
                group_id, group.capacity_records,
                overflow_record_size(host.metadata.dim))
        record = OverflowRecord(global_id=global_id, cluster_id=cluster_id,
                                vector=vector, tombstone=tombstone)
        record_addr = host.layout.addr(overflow_slot_offset(
            group.overflow_offset, host.metadata.dim, slot))
        with span(trace, "write"):
            host.transport.write(host.layout.rkey, record_addr,
                                 pack_overflow_record(record))
        # Keep this instance's own cached entries of the group coherent.
        self._patch_cached_entries(group_id, slot, record)
        return slot

    def _reserve_run(self, group_id: int, count: int,
                     trace: TraceContext | None = None) -> tuple[int, int]:
        """Reserve up to ``count`` consecutive slots with one FAA.

        Returns ``(slot0, claimed)`` with ``claimed`` in ``[0, count]``;
        the portion past capacity is rolled back, so a partially claimed
        run lets a large batch split across rebuilds.  Raises
        :class:`GroupSealedError` (fully rolled back) when the area was
        sealed by a concurrent cutover.
        """
        host = self.host
        group = host.metadata.groups[group_id]
        tail_addr = host.layout.addr(group.overflow_offset)
        with span(trace, "reserve"):
            slot0, sealed = decode_overflow_tail(
                host.transport.faa(host.layout.rkey, tail_addr, count),
                group.capacity_records)
            if sealed:
                host.transport.faa(host.layout.rkey, tail_addr, -count)
                raise GroupSealedError(group_id)
            # A reservation that lands past capacity decodes clamped to it.
            claimed = min(count, group.capacity_records - slot0)
            if claimed < count:
                host.transport.faa(host.layout.rkey, tail_addr,
                                   -(count - claimed))
        # The FAA's answer is a tail word like any other: this client's
        # next fetch of the group reads as far as its own records.
        host.engine.decoder.note_tail(group_id, slot0 + claimed)
        return slot0, claimed

    # -- shared helpers ----------------------------------------------------
    def _group_members(self, group_id: int) -> list[int]:
        return [cid for cid, entry in enumerate(self.host.metadata.clusters)
                if entry.group_id == group_id]

    def _patch_cached_entries(self, group_id: int, slot: int,
                              record: OverflowRecord) -> None:
        """Keep this instance's cached entries of a group coherent with a
        record just written at ``slot``."""
        for cid in self._group_members(group_id):
            entry = self.host.cache.peek(cid)
            if entry is not None and entry.overflow_tail == slot:
                if cid == record.cluster_id:
                    entry.overflow.append(record)
                entry.overflow_tail = slot + 1
                self.host.engine.fetcher.grow(
                    entry, overflow_record_size(self.host.metadata.dim))

    # -- rebuild ----------------------------------------------------------
    def rebuild_group(self, group_id: int,
                      trace: TraceContext | None = None) -> bool:
        """Lead (or yield) a shadow rebuild of ``group_id``.

        Returns True when this client led the rebuild to completion,
        False when it lost the leadership CAS to another writer.
        """
        rebuild = ShadowRebuild(self.host, group_id, trace=trace)
        led = rebuild.run()
        if led:
            self.stats.rebuilds_led += 1
            self.stats.records_migrated += rebuild.migrated_records
        else:
            self.stats.rebuilds_yielded += 1
        return led
