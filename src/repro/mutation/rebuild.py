"""Shadow group rebuilds: non-blocking relocation with versioned cutover.

When a group's shared overflow fills, its two sub-HNSW clusters are
merged with their overflow records and relocated to the region tail.
:class:`ShadowRebuild` performs that as a *shadow* operation — readers
keep serving the old extents for the entire build — in five steps:

``acquire``
    Win rebuild leadership with a remote CAS on the group's lock word
    (a u64 in the metadata reserve, see
    :func:`repro.layout.metadata.rebuild_lock_offset`).  A lost CAS
    means another writer is already rebuilding this group; the loser
    yields, refreshes metadata, and retries its reservation against the
    rebuilt group instead of duplicating the work.

``snapshot``
    One READ covering the whole group — its span is
    :func:`repro.layout.group_layout.group_extent`, its members
    :meth:`GlobalMetadata.group_members`.  Records
    ``T0``, the overflow tail at snapshot time.  Writers may keep
    appending past ``T0`` while the build runs — slots are write-once,
    so the snapshot prefix can never be torn.

``build``
    Merge each member's blob with its overflow records ``[0, T0)`` into
    a fresh sub-HNSW blob (``BuildPool`` fan-out).  Pure compute,
    charged to the *rebuilder's* clock only — no reader waits on it.

``write``
    Allocate space for ``[blob A][fresh overflow][blob B]``, place the
    three parts with :func:`repro.layout.group_layout.place_group` (the
    rule the offline build lays groups out with) and write the new
    blobs plus a zeroed tail counter.  The live
    metadata still points at the old extents; readers are unaffected.

``cutover``
    The one atomic publication step: seal the old tail with a single
    ``FAA(+OVERFLOW_SEALED)`` (whose return value pins the exact final
    count ``T1``), migrate the late records ``[T0, T1)`` into the new
    overflow, then publish metadata with the group's version and the
    global version each bumped by one.  The old extents are logged to
    the :class:`~repro.mutation.reclaim.RetiredExtentLog` — reclaimed
    only after every registered reader has observed the new version.
    Finally the lock word is released.

The sealed tail still encodes the true record count
(``tail - OVERFLOW_SEALED``), so the retired extent remains a
decodable, consistent snapshot for readers pinned to the previous
metadata epoch; a racing writer's FAA lands ``>= OVERFLOW_SEALED``,
rolls back, and retries at the new location
(:class:`repro.errors.GroupSealedError`).

The simulator executes each client op atomically (single-threaded,
op-granularity interleaving), so a record FAA-reserved before the seal
is always fully written by the time the cutover migrates it; a real
implementation would quiesce in-flight writes with a bounded wait
before migrating.

``run()`` drives all steps to completion (the inline, insert-triggered
path); ``step()`` advances one state at a time so a harness can
interleave reader batches with an in-flight rebuild and measure that
the build never lands in a reader's critical path.
"""

from __future__ import annotations

import dataclasses
import struct
import zlib

from repro.core.build_pool import BuildPool
from repro.core.config import SUB_PARAMS
from repro.errors import LayoutError
from repro.hnsw.parallel_build import ClusterRebuildTask, rebuild_cluster_blob
from repro.layout.group_layout import (
    OVERFLOW_SEALED,
    GroupPlan,
    decode_overflow_tail,
    group_extent,
    overflow_area_size,
    overflow_slot_offset,
    pack_overflow_tail,
    place_group,
    unpack_overflow_area,
    unpack_overflow_tail,
)
from repro.layout.metadata import GlobalMetadata, rebuild_lock_offset
from repro.layout.serializer import (
    OverflowRecord,
    overflow_record_size,
    pack_overflow_records,
    unpack_overflow_records,
)
from repro.serving.trace import TraceContext, span

__all__ = ["ShadowRebuild", "writer_token"]

_U64 = struct.Struct("<Q")


def writer_token(name: str) -> int:
    """Deterministic nonzero lock token for a writer name.

    CRC32-based (never Python's salted ``hash``) so a seeded schedule
    produces the same lock traffic in every process.  Collisions between
    same-named writers are harmless: acquisition succeeds only on a
    ``0 -> token`` transition, and only the winner ever releases.
    """
    return (zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF) | 1


@dataclasses.dataclass
class _Snapshot:
    """State captured by the snapshot step and consumed downstream."""

    member_ids: list[int]
    blobs: dict[int, bytes]
    records: list[OverflowRecord]
    t0: int
    #: ``(offset, length)`` of the group as it stood; retired at cutover.
    old_extent: tuple[int, int]
    old_overflow_offset: int
    capacity_records: int


class ShadowRebuild:
    """One group's shadow rebuild, driven step-wise or to completion."""

    STEPS = ("acquire", "snapshot", "build", "write", "cutover")

    def __init__(self, ctx, group_id: int,
                 trace: TraceContext | None = None) -> None:
        # The client's context, kept as ``host``: the spine's tracer
        # (``benchmarks/spine/tracer.py``) reads a rebuild step's clock as
        # ``rebuild.host.node.clock``.
        self.host = ctx
        self.group_id = group_id
        self.trace = trace
        self.state = "acquire"
        self.token = writer_token(ctx.node.name)
        self._lock = rebuild_lock_offset(ctx.layout.metadata_nbytes,
                                         group_id)
        self.migrated_records = 0
        self._snapshot: _Snapshot | None = None
        self._new_blobs: list[bytes] = []
        self._new_plan: GroupPlan | None = None

    # -- lifecycle -------------------------------------------------------
    @property
    def done(self) -> bool:
        """True once the cutover has published."""
        return self.state == "done"

    @property
    def yielded(self) -> bool:
        """True when another writer held the lock (no work performed)."""
        return self.state == "yielded"

    def run(self) -> bool:
        """Drive every remaining step; True if this writer led the
        rebuild to completion, False if it yielded to another leader."""
        while not (self.done or self.yielded):
            self.step()
        return self.done

    def step(self) -> str:
        """Execute the current step and advance; returns its name."""
        state = self.state
        if state in ("done", "yielded"):
            return state
        getattr(self, f"_step_{state}")()
        return state

    # -- step implementations --------------------------------------------
    def _step_acquire(self) -> None:
        prior = self.host.cas(self._lock, 0, self.token)
        if prior != 0:
            # Another writer leads this group's rebuild; don't duplicate.
            self.state = "yielded"
            return
        self.state = "snapshot"

    def _step_snapshot(self) -> None:
        ctx = self.host
        metadata = ctx.metadata
        group = metadata.groups[self.group_id]
        member_ids = metadata.group_members(self.group_id)
        start, length = group_extent(metadata, self.group_id)
        with span(self.trace, "snapshot"):
            payload = ctx.read(start, length)
            ctx.node.charge_time(ctx.cost_model.deserialize_us(len(payload)))
        overflow_off = group.overflow_offset - start
        t0, sealed = decode_overflow_tail(
            unpack_overflow_tail(payload, overflow_off),
            group.capacity_records)
        if sealed:
            raise LayoutError(
                f"group {self.group_id} already sealed while its rebuild "
                f"lock is held — lost or leaked cutover")
        records = unpack_overflow_area(payload[overflow_off:],
                                       metadata.dim, t0)
        blobs: dict[int, bytes] = {}
        for cid in member_ids:
            cluster = metadata.clusters[cid]
            # Mandatory copy: the payload is a zero-copy view over region
            # memory the allocator may recycle before the build finishes
            # (and blobs are pickled to pool workers anyway).
            blobs[cid] = bytes(payload[cluster.blob_offset - start:
                                       cluster.blob_offset - start
                                       + cluster.blob_length])
        self._snapshot = _Snapshot(
            member_ids=member_ids, blobs=blobs, records=records, t0=t0,
            old_extent=(start, length),
            old_overflow_offset=group.overflow_offset,
            capacity_records=group.capacity_records)
        self.state = "build"

    def _step_build(self) -> None:
        ctx = self.host
        snap = self._snapshot
        assert snap is not None
        tasks = []
        for cid in snap.member_ids:
            tasks.append(ClusterRebuildTask(
                cluster_id=cid, blob=snap.blobs[cid],
                records=[record for record in snap.records
                         if record.cluster_id == cid],
                params=SUB_PARAMS))
        # Members rebuild independently; tasks are pure, so any worker
        # count produces the same blobs.
        with span(self.trace, "build"):
            with BuildPool(min(ctx.config.build_workers,
                               len(tasks))) as pool:
                self._new_blobs = list(pool.map(rebuild_cluster_blob, tasks))
        self.state = "write"

    def _step_write(self) -> None:
        ctx = self.host
        snap = self._snapshot
        assert snap is not None
        sizes = [(cid, len(blob))
                 for cid, blob in zip(snap.member_ids, self._new_blobs)]
        # Placed by the rule the offline build uses.  The extent is sized
        # before its base (hence the pad) is known, so it allows a full
        # 8 B; what the placement did not use goes straight back, or the
        # sliver would keep the retired neighbours from ever coalescing.
        allocator = ctx.layout.allocator
        total = (sum(nbytes for _, nbytes in sizes) + 8
                 + overflow_area_size(ctx.metadata.dim,
                                      snap.capacity_records))
        base = allocator.allocate(total)
        plan = place_group(self.group_id, base, sizes[0],
                           sizes[1] if len(sizes) > 1 else None,
                           ctx.metadata.dim, snap.capacity_records)
        allocator.retire(plan.end_offset, base + total - plan.end_offset)
        with span(self.trace, "write"):
            for blob, offset in zip(self._new_blobs,
                                    (plan.first_offset, plan.second_offset)):
                ctx.write(offset, blob)
            # Fresh tail = 0; written explicitly so relocation onto
            # recycled space never inherits a stale (sealed) counter.
            ctx.write(plan.overflow_offset, pack_overflow_tail(0))
        self._new_plan = plan
        self.state = "cutover"

    def _step_cutover(self) -> None:
        ctx = self.host
        snap, plan = self._snapshot, self._new_plan
        assert snap is not None and plan is not None
        dim = ctx.metadata.dim
        with span(self.trace, "publish"):
            # 1. Seal the old tail.  The FAA's return value is the exact
            #    final raw tail — no later reservation can land below the
            #    sentinel, so T1 is pinned atomically with the seal.
            raw_prior = ctx.faa(snap.old_overflow_offset, OVERFLOW_SEALED)
            t1, _ = decode_overflow_tail(raw_prior, snap.capacity_records)
            # 2. Migrate the late records [T0, T1) into the new overflow.
            migrated: list[OverflowRecord] = []
            if t1 > snap.t0:
                blob = ctx.read(
                    overflow_slot_offset(snap.old_overflow_offset, dim,
                                         snap.t0),
                    (t1 - snap.t0) * overflow_record_size(dim))
                migrated = unpack_overflow_records(
                    bytes(blob), dim, t1 - snap.t0)
                ctx.write(overflow_slot_offset(plan.overflow_offset, dim, 0),
                          pack_overflow_records(migrated))
            ctx.write(plan.overflow_offset,
                      pack_overflow_tail(len(migrated)))
            self.migrated_records = len(migrated)
            # 3. Publish against the *authoritative* block: another
            #    group's rebuild may have published since this one
            #    started, so re-read rather than trusting the local copy
            #    (read-modify-write; atomic at the simulator's op
            #    granularity).
            remote = ctx.read_metadata()
            clusters = list(remote.clusters)
            for cid, offset, blob in zip(
                    snap.member_ids, (plan.first_offset, plan.second_offset),
                    self._new_blobs):
                clusters[cid] = dataclasses.replace(
                    clusters[cid], blob_offset=offset,
                    blob_length=len(blob))
            groups = list(remote.groups)
            groups[self.group_id] = dataclasses.replace(
                groups[self.group_id],
                overflow_offset=plan.overflow_offset,
                version=groups[self.group_id].version + 1)
            fresh = GlobalMetadata(
                version=remote.version + 1, dim=remote.dim,
                overflow_capacity_records=remote.overflow_capacity_records,
                clusters=clusters, groups=groups)
            ctx.write(0, fresh.pack())
            # 4. Retire the old extents behind the grace period: readers
            #    pinned to the previous epoch may still be decoding them.
            ctx.layout.retired.retire(*snap.old_extent, fresh.version)
            # 5. Adopt the new epoch locally (by the rule a refresh
            #    follows) and release the lock.
            ctx.layout.metadata = GlobalMetadata.unpack(fresh.pack())
            ctx.adopt_metadata(fresh)
            ctx.write(self._lock, _U64.pack(0))
        self.state = "done"
