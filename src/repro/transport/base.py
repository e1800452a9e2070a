"""The transport seam between index logic and one-sided memory access.

Everything above this layer (``repro.core``, ``repro.serving``,
``repro.cluster``) speaks :class:`Transport` — a small verb vocabulary of
one-sided READ / WRITE / CAS / FAA plus doorbell-batched and asynchronous
batched READs.  The simulated queue pair (``repro.rdma.qp.QueuePair``)
speaks it itself, and :func:`connect` stands one up; a libibverbs, CXL,
or TCP port would implement it too.  ``tests/test_layering.py`` enforces
the contract: no serving- or core-layer module may import the raw
queue-pair or memory-node machinery directly.

Decorator transports (:class:`~repro.transport.fault.FaultInjectingTransport`,
:class:`~repro.transport.retry.RetryingTransport`) wrap any other transport,
which is how fault tolerance composes without the serving layer knowing.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.rdma.clock import SimClock
from repro.rdma.memory_node import MemoryNode
from repro.rdma.network import CostModel
# Descriptors and the pending-completion token are transport-level currency;
# re-exported here so upper layers never name ``repro.rdma.qp``.
from repro.rdma.qp import (PendingRead, QueuePair, ReadDescriptor,
                           WriteDescriptor)
from repro.rdma.stats import RdmaStats

__all__ = ["PendingRead", "ReadDescriptor", "Transport", "WriteDescriptor",
           "connect"]


@runtime_checkable
class Transport(Protocol):
    """One-sided access to a remote memory region.

    Synchronous verbs charge their simulated duration to :attr:`clock`
    before returning and account traffic in :attr:`stats`.  The async pair
    :meth:`read_batch_async` / :meth:`poll` issues a batch that occupies the
    clock's network channel without advancing time, so intervening compute
    hides wire time (see ``repro.rdma.clock.SimClock``).

    READ payloads are zero-copy ``memoryview`` slices of remote memory on
    the base transport (decorators that mutate or replay payloads may
    return ``bytes``); callers that stash a payload past the next mutating
    verb on the same extent must copy (``docs/architecture.md`` §"memory
    substrate").  WRITE ``data`` is any buffer-protocol object.

    Implementations must be deterministic: the same verb sequence against
    the same remote state yields the same payloads, charges, and counters.
    """

    # -- bookkeeping ----------------------------------------------------
    @property
    def clock(self):  # -> SimClock
        """The simulated clock all verb durations are charged to."""
        ...

    @property
    def stats(self):  # -> RdmaStats
        """Traffic counters shared with the owning compute node."""
        ...

    # -- synchronous verbs ----------------------------------------------
    def read(self, rkey: int, addr: int, length: int) -> "memoryview | bytes":
        """One-sided READ of ``length`` bytes (zero-copy view)."""
        ...

    def write(self, rkey: int, addr: int, data) -> None:
        """One-sided WRITE of any buffer-protocol ``data``."""
        ...

    def cas(self, rkey: int, addr: int, expected: int, desired: int) -> int:
        """Compare-and-swap on a remote u64; returns the prior value."""
        ...

    def faa(self, rkey: int, addr: int, delta: int) -> int:
        """Fetch-and-add on a remote u64; returns the prior value."""
        ...

    # -- batched verbs --------------------------------------------------
    def read_batch(self, descriptors: list[ReadDescriptor],
                   doorbell: bool = True) -> "list[memoryview | bytes]":
        """READ several extents; ``doorbell`` selects WQE coalescing.

        With ``doorbell=False`` the batch costs the same as a loop of
        single READs (the no-doorbell baseline scheme).
        """
        ...

    def write_batch(self, descriptors: list[WriteDescriptor],
                    doorbell: bool = True) -> None:
        """WRITE several extents, doorbell-batched or serially."""
        ...

    def read_batch_async(self, descriptors: list[ReadDescriptor],
                         doorbell: bool = True) -> PendingRead:
        """Issue a READ batch without blocking; complete with :meth:`poll`."""
        ...

    def poll(self, pending: PendingRead) -> "list[memoryview | bytes]":
        """Wait for an async READ batch and return its payloads."""
        ...

    def abandon(self, pending: PendingRead) -> None:
        """Retire an async READ whose completion will never be consumed.

        Charges no time and records no traffic; releases any resources
        (e.g. copy-on-write guards) the in-flight batch held.  Idempotent.
        """
        ...

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Tear the transport down; further verbs raise."""
        ...


def connect(memory_node: MemoryNode, clock: SimClock, cost_model: CostModel,
            stats: RdmaStats | None = None) -> QueuePair:
    """A fresh queue pair to ``memory_node``, ready to send: the base
    transport of a connection that no compute node owns (``DHnswBuilder``'s
    bulk load, a client's replica mirrors)."""
    qp = QueuePair(memory_node, clock, cost_model, stats)
    qp.connect()
    return qp
