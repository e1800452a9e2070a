"""Counters for simulated RDMA traffic.

:class:`RdmaStats` is the measurement substrate behind the paper's
round-trips-per-query numbers (§4, latency breakdown discussion) and the
network column of Tables 1 and 2.  Snapshots/deltas let the engine attribute
traffic to individual query batches.
"""

from __future__ import annotations

import dataclasses

__all__ = ["RdmaStats"]


@dataclasses.dataclass
class RdmaStats:
    """Mutable RDMA traffic counters.

    ``round_trips`` counts *network* round trips: a doorbell batch of many
    READs over one ring counts once, which is exactly the accounting that
    makes d-HNSW's 4.75e-3 round-trips/query figure meaningful.
    """

    round_trips: int = 0
    read_ops: int = 0
    write_ops: int = 0
    atomic_ops: int = 0
    doorbell_batches: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    network_time_us: float = 0.0
    #: Portion of read wire time that completed under overlapped compute —
    #: issued via ``read_batch_async`` and already finished when the
    #: caller polled.  ``network_time_us`` holds only the *exposed* wait, so
    #: exposed + overlapped equals the serial wire time.
    overlapped_time_us: float = 0.0
    #: Verb re-issues performed by a retrying transport after a fault.
    retries: int = 0
    #: Simulated time spent backing off between retry attempts (charged to
    #: the owning clock; *not* included in ``network_time_us``).
    backoff_time_us: float = 0.0
    #: Faults a ``FaultInjectingTransport`` injected (simulation-only).
    faults_injected: int = 0
    #: READs re-routed to another replica after one replica exhausted its
    #: retry budget (see ``repro.transport.replica``).
    failovers: int = 0
    #: CAS verbs that lost their race (prior value != expected).  The
    #: writer-contention signal of the mutation path: every lost rebuild
    #: leadership or cutover race shows up here.
    cas_failures: int = 0

    def record_read(self, nbytes: int, time_us: float) -> None:
        """Account one single READ."""
        self.round_trips += 1
        self.read_ops += 1
        self.bytes_read += nbytes
        self.network_time_us += time_us

    def record_write(self, nbytes: int, time_us: float) -> None:
        """Account one single WRITE."""
        self.round_trips += 1
        self.write_ops += 1
        self.bytes_written += nbytes
        self.network_time_us += time_us

    def record_atomic(self, time_us: float) -> None:
        """Account one CAS/FAA."""
        self.round_trips += 1
        self.atomic_ops += 1
        self.network_time_us += time_us

    def record_cas_failure(self) -> None:
        """Account one CAS that observed a different prior value.

        The verb itself is already counted by :meth:`record_atomic`;
        this only tallies the lost race (writer contention).
        """
        self.cas_failures += 1

    def record_doorbell_read(self, sizes: list[int], rings: int,
                             time_us: float) -> None:
        """Account one doorbell-batched READ covering several WQEs."""
        self.round_trips += rings
        self.read_ops += len(sizes)
        self.doorbell_batches += 1
        self.bytes_read += sum(sizes)
        self.network_time_us += time_us

    def record_async_read(self, sizes: list[int], rings: int,
                          waited_us: float, hidden_us: float,
                          doorbell: bool = True) -> None:
        """Account one asynchronously issued READ batch at poll time.

        ``waited_us`` is the exposed wait charged to the caller's timeline;
        ``hidden_us`` is the remainder of the wire time that overlapped with
        compute between issue and poll.
        """
        self.round_trips += rings
        self.read_ops += len(sizes)
        if doorbell:
            self.doorbell_batches += 1
        self.bytes_read += sum(sizes)
        self.network_time_us += waited_us
        self.overlapped_time_us += hidden_us

    def record_doorbell_write(self, sizes: list[int], rings: int,
                              time_us: float) -> None:
        """Account one doorbell-batched WRITE covering several WQEs."""
        self.round_trips += rings
        self.write_ops += len(sizes)
        self.doorbell_batches += 1
        self.bytes_written += sum(sizes)
        self.network_time_us += time_us

    def record_retry(self, backoff_us: float) -> None:
        """Account one verb re-issue and the backoff that preceded it."""
        self.retries += 1
        self.backoff_time_us += backoff_us

    def record_fault(self, wasted_us: float = 0.0) -> None:
        """Account one injected transport fault.

        ``wasted_us`` is the wire/wait time the failed attempt burned
        (e.g. an armed timeout, or the partial transfer of a torn READ);
        it is exposed wait, so it lands in ``network_time_us``.
        """
        self.faults_injected += 1
        self.network_time_us += wasted_us

    def record_failover(self) -> None:
        """Account one READ failed over to a different replica."""
        self.failovers += 1

    # ------------------------------------------------------------------
    def snapshot(self) -> "RdmaStats":
        """A frozen copy of the current counters."""
        return dataclasses.replace(self)

    def delta(self, earlier: "RdmaStats") -> "RdmaStats":
        """Counters accumulated since ``earlier`` was snapshotted."""
        names = [field.name for field in dataclasses.fields(self)]
        return RdmaStats(**{name: getattr(self, name) - getattr(earlier, name)
                            for name in names})

    def merge(self, other: "RdmaStats") -> None:
        """Add ``other``'s counters into this one (cluster aggregation)."""
        for field in dataclasses.fields(self):
            setattr(self, field.name,
                    getattr(self, field.name) + getattr(other, field.name))
