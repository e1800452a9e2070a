"""Queue pairs: the verbs interface a compute instance uses.

A :class:`QueuePair` connects one compute instance to one memory node and
exposes the one-sided verbs d-HNSW relies on — READ, WRITE, CAS, FAA — plus
doorbell-batched READs (§3.2: "we leverage doorbell batching to read them in
a single network round-trip with RDMA NIC issuing multiple PCIe
transactions").  Its verbs are the :class:`repro.transport.Transport`
protocol's, so a queue pair is the base transport every decorator wraps.

Every synchronous verb returns its result, charges simulated time to the
owning clock, and records traffic in :class:`~repro.rdma.stats.RdmaStats`.
Batched READs additionally come in a non-blocking flavour —
:meth:`QueuePair.read_batch_async` returns a :class:`PendingRead`
occupying the clock's network channel without advancing time, and
:meth:`QueuePair.poll` later waits only for whatever portion of the wire
time has not already elapsed under the caller's compute.  The hidden portion
is recorded as ``RdmaStats.overlapped_time_us``, which is how the pipelined
serving engine charges fetch/compute overlap honestly instead of estimating
it.  Synchronous verbs queue behind in-flight async work on the same channel
(and are numerically unchanged when nothing is in flight).
"""

from __future__ import annotations

import dataclasses
import enum

from repro.errors import QpStateError
from repro.rdma.clock import SimClock
from repro.rdma.memory_node import MemoryNode
from repro.rdma.network import CostModel
from repro.rdma.stats import RdmaStats

__all__ = ["QueuePair", "QpState", "ReadDescriptor", "WriteDescriptor",
           "PendingRead", "NETWORK_CHANNEL"]

#: SimClock channel shared by all verbs of a QP: one NIC, one wire.
NETWORK_CHANNEL = "network"


class QpState(enum.Enum):
    """Lifecycle of a queue pair (RESET -> RTS -> ERROR/CLOSED)."""

    RESET = "reset"
    READY = "rts"
    CLOSED = "closed"


@dataclasses.dataclass(frozen=True)
class ReadDescriptor:
    """One WQE of a doorbell-batched READ."""

    rkey: int
    addr: int
    length: int


@dataclasses.dataclass(frozen=True)
class WriteDescriptor:
    """One WQE of a doorbell-batched WRITE.

    ``data`` is any buffer-protocol object (``bytes``, ``memoryview``,
    C-contiguous NumPy array); it is written through a single byte view,
    never copied into an intermediate ``bytes``.
    """

    rkey: int
    addr: int
    data: "bytes | bytearray | memoryview"


@dataclasses.dataclass
class PendingRead:
    """An in-flight READ batch issued by ``read_batch_async``.

    Payloads are zero-copy region views observed at issue time; a
    copy-on-write guard on the memory node preserves snapshot-at-issue
    semantics (a write landing inside a payload's range between issue and
    poll materializes that payload first).  Also carries the timeline
    bookkeeping :meth:`QueuePair.poll` needs to split wire time into an
    exposed wait and an overlapped (hidden) portion.
    """

    payloads: "list[memoryview | bytes]"
    sizes: list[int]
    rings: int
    doorbell: bool
    issued_at_us: float
    completes_at_us: float
    elapsed_us: float
    completed: bool = False
    guard: object | None = None


class QueuePair:
    """A reliable-connected QP between a compute instance and a memory node."""

    def __init__(self, memory_node: MemoryNode, clock: SimClock,
                 cost_model: CostModel,
                 stats: RdmaStats | None = None) -> None:
        self.memory_node = memory_node
        self.clock = clock
        self.cost_model = cost_model
        self.stats = stats if stats is not None else RdmaStats()
        self.state = QpState.RESET

    # ------------------------------------------------------------------
    def connect(self) -> None:
        """Transition to ready-to-send."""
        if self.state is QpState.CLOSED:
            raise QpStateError("cannot reconnect a closed QP")
        self.state = QpState.READY

    def close(self) -> None:
        """Tear the QP down; further verbs raise."""
        self.state = QpState.CLOSED

    def _require_ready(self) -> None:
        if self.state is not QpState.READY:
            raise QpStateError(f"verb posted on QP in state {self.state.value}")

    # ------------------------------------------------------------------
    def _read(self, rkey: int, addr: int, length: int) -> memoryview:
        """One-sided READ of ``length`` bytes (zero-copy region view)."""
        self._require_ready()
        data = self.memory_node.read(rkey, addr, length)
        elapsed = self.cost_model.read_us(length)
        charged = self.clock.advance_channel(NETWORK_CHANNEL, elapsed)
        self.stats.record_read(length, charged)
        return data

    def _write(self, rkey: int, addr: int, data) -> None:
        """One-sided WRITE of any buffer-protocol ``data``."""
        self._require_ready()
        nbytes = self.memory_node.write(rkey, addr, data)
        elapsed = self.cost_model.write_us(nbytes)
        charged = self.clock.advance_channel(NETWORK_CHANNEL, elapsed)
        self.stats.record_write(nbytes, charged)

    # The public single verbs.  The ``doorbell=False`` batch loops call
    # the private methods, so a wrapper installed on an instance's
    # ``read`` / ``write`` sees each verb the caller posted, once.
    read = _read
    write = _write

    def cas(self, rkey: int, addr: int, expected: int, desired: int) -> int:
        """Compare-and-swap on a remote u64; returns the prior value."""
        self._require_ready()
        prior = self.memory_node.compare_and_swap(rkey, addr, expected, desired)
        elapsed = self.cost_model.atomic_us()
        charged = self.clock.advance_channel(NETWORK_CHANNEL, elapsed)
        self.stats.record_atomic(charged)
        if prior != expected:
            self.stats.record_cas_failure()
        return prior

    def faa(self, rkey: int, addr: int, delta: int) -> int:
        """Fetch-and-add on a remote u64; returns the prior value."""
        self._require_ready()
        prior = self.memory_node.fetch_and_add(rkey, addr, delta)
        elapsed = self.cost_model.atomic_us()
        charged = self.clock.advance_channel(NETWORK_CHANNEL, elapsed)
        self.stats.record_atomic(charged)
        return prior

    # ------------------------------------------------------------------
    def read_batch(self, descriptors: list[ReadDescriptor],
                   doorbell: bool = True) -> list[memoryview]:
        """Doorbell-batched READ: many WQEs, few network round trips.

        The cost model splits the batch into rings of at most
        ``doorbell_limit`` WQEs; each ring is one round trip.  Payloads
        are zero-copy region views.  With ``doorbell=False`` the batch is
        a loop of single READs (the no-doorbell baseline scheme).
        """
        if not doorbell:
            return [self._read(d.rkey, d.addr, d.length)
                    for d in descriptors]
        self._require_ready()
        if not descriptors:
            return []
        payloads = [self.memory_node.read(d.rkey, d.addr, d.length)
                    for d in descriptors]
        sizes = [d.length for d in descriptors]
        rings = self.cost_model.doorbell_rings(len(sizes))
        elapsed = self.cost_model.doorbell_read_us(sizes)
        charged = self.clock.advance_channel(NETWORK_CHANNEL, elapsed)
        self.stats.record_doorbell_read(sizes, rings, charged)
        return payloads

    def read_batch_async(self, descriptors: list[ReadDescriptor],
                              doorbell: bool = True) -> PendingRead:
        """Issue a READ batch without waiting for completion.

        The batch occupies the clock's network channel starting as soon as
        the channel is free; ``now_us`` does not advance.  Payloads observe
        remote memory as of the issue (one-sided semantics): they are
        zero-copy views, armed with a copy-on-write guard so a conflicting
        write before :meth:`poll` snapshots the affected payload first.
        Only the portion of the wire time that has not already passed
        under intervening compute is charged at poll.  With
        ``doorbell=False`` the batch costs the same as a loop of single
        READs (no WQE coalescing), letting non-doorbell schemes pipeline
        too.
        """
        self._require_ready()
        now = self.clock.now_us
        if not descriptors:
            return PendingRead(payloads=[], sizes=[], rings=0,
                               doorbell=doorbell, issued_at_us=now,
                               completes_at_us=now, elapsed_us=0.0)
        payloads = [self.memory_node.read(d.rkey, d.addr, d.length)
                    for d in descriptors]
        ranges = []
        for d in descriptors:
            base = self.memory_node.get_region(d.rkey).base_addr
            ranges.append((d.rkey, d.addr - base, d.length))
        guard = self.memory_node.guard_payloads(ranges, payloads)
        sizes = [d.length for d in descriptors]
        if doorbell:
            rings = self.cost_model.doorbell_rings(len(sizes))
            elapsed = self.cost_model.doorbell_read_us(sizes)
        else:
            rings = len(sizes)
            elapsed = self.cost_model.serial_read_us(sizes)
        completes = self.clock.issue(NETWORK_CHANNEL, elapsed)
        return PendingRead(payloads=payloads, sizes=sizes, rings=rings,
                           doorbell=doorbell, issued_at_us=now,
                           completes_at_us=completes, elapsed_us=elapsed,
                           guard=guard)

    def abandon(self, pending: PendingRead) -> None:
        """Discard an async READ whose payloads will never be consumed.

        An error completion carries no data, so the failed batch's token
        must be retired without charging time or recording traffic — but
        its copy-on-write guard has to be released, or the memory node
        keeps snapshotting payloads for a reader that no longer exists.
        The network channel stays busy with the dead WQE, which is what a
        real timed-out READ leaves behind.  Idempotent.
        """
        if pending.completed:
            return
        pending.completed = True
        if pending.guard is not None:
            self.memory_node.release_guard(pending.guard)
            pending.guard = None

    def poll(self, pending: PendingRead) -> "list[memoryview | bytes]":
        """Wait for an async READ batch and return its payloads.

        Advances the clock only to the batch's completion time — time that
        already elapsed between issue and poll is *hidden* and recorded as
        ``overlapped_time_us`` instead of ``network_time_us``.
        """
        self._require_ready()
        if pending.completed:
            raise QpStateError("poll called twice on the same PendingRead")
        pending.completed = True
        if pending.guard is not None:
            self.memory_node.release_guard(pending.guard)
            pending.guard = None
        if not pending.sizes:
            return []
        polled_at = self.clock.now_us
        waited = self.clock.advance_to(pending.completes_at_us)
        # Wire time hides only under work done since the issue: polled at
        # its issue time, a READ hid nothing (``elapsed - waited`` would
        # be rounding).
        hidden = (max(0.0, pending.elapsed_us - waited)
                  if polled_at > pending.issued_at_us else 0.0)
        self.stats.record_async_read(pending.sizes, pending.rings,
                                     waited, hidden,
                                     doorbell=pending.doorbell)
        return pending.payloads

    def write_batch(self, descriptors: list[WriteDescriptor],
                    doorbell: bool = True) -> None:
        """Doorbell-batched WRITE: many WQEs, few network round trips.

        Same cost shape as :meth:`read_batch`; d-HNSW uses it for
        batched insertions into scattered overflow areas.  With
        ``doorbell=False`` the batch is a loop of single WRITEs.
        """
        if not doorbell:
            for d in descriptors:
                self._write(d.rkey, d.addr, d.data)
            return
        self._require_ready()
        if not descriptors:
            return
        sizes = [self.memory_node.write(d.rkey, d.addr, d.data)
                 for d in descriptors]
        rings = self.cost_model.doorbell_rings(len(sizes))
        elapsed = self.cost_model.doorbell_read_us(sizes)
        charged = self.clock.advance_channel(NETWORK_CHANNEL, elapsed)
        self.stats.record_doorbell_write(sizes, rings, charged)
