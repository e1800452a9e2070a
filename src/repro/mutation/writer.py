"""The per-client mutation front end: insert, delete, batched insert.

:class:`MutationEngine` is the write-side sibling of
:class:`repro.serving.engine.ServingEngine`.  The paper's §3.2 write is
one protocol — route via the cached meta-HNSW, reserve overflow slots
with one remote FAA, WRITE the packed records — and
:meth:`MutationEngine._write` states it once, over rows of ``(vector,
global_id)`` plus the tombstone flag: ``insert`` and ``delete`` are that
loop over one row, ``insert_batch`` over many.  What it adds for
*concurrent* writers:

* A group's rows reserve a slot *run* with one FAA and may claim it
  partially, so a batch larger than the overflow capacity splits across
  reservations with rebuilds in between.
* A run that claims nothing met a full area — the writer leads a
  :class:`~repro.mutation.rebuild.ShadowRebuild`, or lost its leadership
  CAS and adopts the winner's epoch — or a *sealed* tail
  (:class:`repro.errors.GroupSealedError`: a cutover relocated the group
  mid-flight; roll back, refresh, retry at the new location).
  ``_RETRY_LIMIT`` such stalls in a row raise ``OverflowFullError``.
* Record WRITEs are deferred and doorbell-batched, and flushed before
  any rebuild so its snapshot observes every reserved record.  A flush
  of exactly one record is a plain ``transport.write`` (a doorbell ring
  is for more than one WQE): one write costs one FAA and one WRITE
  whichever entry issued it.

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

from repro.errors import (GroupSealedError, NonFiniteVectorError,
                          OverflowFullError)
from repro.layout.group_layout import (decode_overflow_tail,
                                       overflow_slot_offset)
from repro.layout.serializer import (
    OverflowRecord,
    overflow_record_size,
    pack_overflow_record,
)
from repro.mutation.rebuild import ShadowRebuild
from repro.serving.trace import TraceContext, span

__all__ = ["InsertReport", "MutationEngine", "MutationStats"]

#: Consecutive reservations of one group that may claim nothing (area
#: full, or sealed by a racing cutover) before the write raises
#: ``OverflowFullError`` instead of spinning.
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

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        #: Write-side counters, kept on the context (its reclaim adds).
        self.stats: MutationStats = ctx.mutation_stats
        #: Trace of the most recent mutation (None before the first).
        self.last_trace: TraceContext | None = None

    # -- public mutations -------------------------------------------------
    def insert(self, vector: np.ndarray, global_id: int) -> InsertReport:
        """Insert one vector (FAA slot reservation + one WRITE)."""
        return self._write(np.reshape(vector, (1, -1)), [global_id])[0]

    def delete(self, vector: np.ndarray, global_id: int) -> InsertReport:
        """Logically delete ``global_id`` with a tombstone record."""
        return self._write(np.reshape(vector, (1, -1)), [global_id],
                           tombstone=True)[0]

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
        return self._write(vectors, global_ids)

    # -- the write protocol -------------------------------------------------
    def _write(self, vectors: np.ndarray, global_ids: list[int],
               tombstone: bool = False) -> list[InsertReport]:
        """Route, reserve, WRITE: one record per row of ``vectors``."""
        ctx = self.ctx
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if vectors.shape[0] != len(global_ids):
            raise ValueError(
                f"{vectors.shape[0]} vectors but {len(global_ids)} ids")
        NonFiniteVectorError.check(vectors, "vector")
        trace = self.last_trace = TraceContext(
            ctx.next_request_id(), ctx.node.clock, ctx.node.stats)
        with span(trace, "classify"):
            ctx.refresh_metadata()
            ctx.meta.reset_compute_counter()
            cluster_ids = ctx.meta.classify_batch(
                vectors, ef=ctx.config.ef_meta).tolist()
            ctx.node.charge_compute(ctx.meta.reset_compute_counter(),
                                    ctx.meta.dim)

        # Cluster->group membership is fixed at build time; only a group's
        # *location* moves, so its entry is re-read per reservation.
        by_group: dict[int, list[int]] = {}
        for row, cid in enumerate(cluster_ids):
            by_group.setdefault(
                ctx.metadata.clusters[cid].group_id, []).append(row)

        record_size = overflow_record_size(ctx.metadata.dim)
        reports: list[InsertReport] = [None] * len(global_ids)
        #: Reserved but not yet written: (group, slot, offset, record).
        deferred: list[tuple[int, int, int, OverflowRecord]] = []

        def flush() -> None:
            if not deferred:
                return
            with span(trace, "write"):
                if len(deferred) == 1:
                    # A doorbell ring is for more than one WQE.
                    _, _, offset, record = deferred[0]
                    ctx.write(offset, pack_overflow_record(record))
                else:
                    ctx.transport.write_batch(
                        ctx.write_descriptors(
                            (offset, pack_overflow_record(record))
                            for _, _, offset, record in deferred),
                        doorbell=ctx.policy.doorbell_batching)
            # Keep this instance's own cached entries coherent.
            for group_id, slot, _, record in deferred:
                self._patch_cached_entries(group_id, slot, record)
            deferred.clear()

        for group_id in sorted(by_group):
            rows = by_group[group_id]
            cursor = 0
            chunks = 0
            led_rebuild = False
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
                    if sealed or not self.rebuild_group(group_id, trace):
                        # The group moved under us, or another writer
                        # leads its rebuild: adopt the new epoch.
                        ctx.refresh_metadata()
                    else:
                        # Overflow genuinely full and rebuilt by this
                        # writer; keep claiming the remainder of the run.
                        led_rebuild = True
                    stalls += 1
                    if stalls >= _RETRY_LIMIT:
                        raise OverflowFullError(
                            group_id,
                            ctx.metadata.groups[group_id].capacity_records,
                            len(pending) * record_size)
                    continue
                stalls = 0
                chunks += 1
                group = ctx.metadata.groups[group_id]
                for slot, row in enumerate(pending[:claimed], slot0):
                    record = OverflowRecord(
                        global_id=global_ids[row],
                        cluster_id=cluster_ids[row], vector=vectors[row],
                        tombstone=tombstone)
                    deferred.append((group_id, slot, overflow_slot_offset(
                        group.overflow_offset, ctx.metadata.dim, slot),
                        record))
                    reports[row] = InsertReport(
                        global_id=global_ids[row],
                        cluster_id=cluster_ids[row], overflow_slot=slot,
                        triggered_rebuild=led_rebuild and slot == slot0)
                led_rebuild = False
                cursor += claimed
            self.stats.batch_chunks += chunks - 1
        flush()
        if tombstone:
            self.stats.deletes += len(reports)
        else:
            self.stats.inserts += len(reports)
        return reports

    # -- reservation protocol ---------------------------------------------
    def _reserve_run(self, group_id: int, count: int,
                     trace: TraceContext | None = None) -> tuple[int, int]:
        """Reserve up to ``count`` consecutive slots with one FAA.

        Returns ``(slot0, claimed)`` with ``claimed`` in ``[0, count]``;
        the portion past capacity is rolled back, so a partially claimed
        run lets a large batch split across rebuilds.  Raises
        :class:`GroupSealedError` (fully rolled back) when the area was
        sealed by a concurrent cutover.
        """
        ctx = self.ctx
        group = ctx.metadata.groups[group_id]
        tail_word = group.overflow_offset
        with span(trace, "reserve"):
            slot0, sealed = decode_overflow_tail(ctx.faa(tail_word, count),
                                                 group.capacity_records)
            if sealed:
                ctx.faa(tail_word, -count)
                raise GroupSealedError(group_id)
            # A reservation that lands past capacity decodes clamped to it.
            claimed = min(count, group.capacity_records - slot0)
            if claimed < count:
                ctx.faa(tail_word, -(count - claimed))
        # The FAA's answer is a tail word like any other: this client's
        # next fetch of the group reads as far as its own records.
        ctx.note_tail(group_id, slot0 + claimed)
        return slot0, claimed

    def _patch_cached_entries(self, group_id: int, slot: int,
                              record: OverflowRecord) -> None:
        """Keep this instance's cached entries of a group coherent with a
        record just written at ``slot``."""
        ctx = self.ctx
        for cid in ctx.metadata.group_members(group_id):
            entry = ctx.cache.peek(cid)
            if entry is not None and entry.overflow_tail == slot:
                if cid == record.cluster_id:
                    entry.overflow.append(record)
                entry.overflow_tail = slot + 1
                ctx.cache.grow(entry, overflow_record_size(ctx.metadata.dim),
                               ctx.node.clock.now_us)

    # -- rebuild ----------------------------------------------------------
    def rebuild_group(self, group_id: int,
                      trace: TraceContext | None = None) -> bool:
        """Lead (or yield) a shadow rebuild of ``group_id``.

        Returns True when this client led the rebuild to completion,
        False when it lost the leadership CAS to another writer.
        """
        rebuild = ShadowRebuild(self.ctx, group_id, trace=trace)
        led = rebuild.run()
        if led:
            self.stats.rebuilds_led += 1
            self.stats.records_migrated += rebuild.migrated_records
        else:
            self.stats.rebuilds_yielded += 1
        return led
