"""Per-request tracing threaded through the serving stages.

A :class:`TraceContext` rides along with one ``search_batch`` request.
Each stage (route, plan, fetch, decode, compute, merge) opens a
:meth:`TraceContext.stage` span around its work; the span accumulates
wall-clock seconds, simulated microseconds (clock delta), and bytes moved
(RDMA counter deltas) into that stage's :class:`StageReport`.

Tracing is observation only: it reads the clock and counters but never
advances or mutates them, so traced and untraced runs produce identical
simulated numbers.  ``repro.telemetry`` renders the reports.

This module is dependency-free (the clock and stats are duck-typed) so
every layer can import it without cycles.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Iterator

__all__ = ["StageReport", "TraceContext", "span"]


@dataclasses.dataclass
class StageReport:
    """Accumulated cost of one named stage within one request."""

    name: str
    calls: int = 0
    wall_s: float = 0.0
    #: Simulated time that elapsed while the stage was open.  Includes
    #: verb charges made by the stage; pure-observation stages report 0.
    sim_us: float = 0.0
    bytes_read: int = 0
    bytes_written: int = 0


class TraceContext:
    """Stage-level cost attribution for one serving request.

    Construct with the clock/stats the request charges against (either
    may be None, e.g. in unit tests exercising a stage in isolation).
    Spans of the same name accumulate into one report, so a per-wave
    stage shows up once with ``calls`` equal to the wave count.
    """

    def __init__(self, request_id: int, clock=None, stats=None) -> None:
        self.request_id = request_id
        self._clock = clock
        self._stats = stats
        self.stages: dict[str, StageReport] = {}
        #: Fault-path events attributed to this request (e.g.
        #: ``"failovers"``, ``"retries"``, ``"faults_injected"``) — how an
        #: operator sees *which* request paid for a replica failure.
        self.events: dict[str, float] = {}

    def record_event(self, name: str, value: float = 1.0) -> None:
        """Accumulate a named fault-path event onto this request."""
        if value:
            self.events[name] = self.events.get(name, 0.0) + value

    @contextlib.contextmanager
    def stage(self, name: str) -> Iterator[StageReport]:
        """Attribute the enclosed work to stage ``name``."""
        report = self.stages.setdefault(name, StageReport(name))
        wall_start = time.perf_counter()
        sim_start = self._clock.now_us if self._clock is not None else 0.0
        read_start = self._stats.bytes_read if self._stats is not None else 0
        written_start = (self._stats.bytes_written
                         if self._stats is not None else 0)
        try:
            yield report
        finally:
            report.calls += 1
            report.wall_s += time.perf_counter() - wall_start
            if self._clock is not None:
                report.sim_us += self._clock.now_us - sim_start
            if self._stats is not None:
                report.bytes_read += self._stats.bytes_read - read_start
                report.bytes_written += (self._stats.bytes_written
                                         - written_start)

    # ------------------------------------------------------------------
    def report(self) -> list[StageReport]:
        """Stage reports in first-entry order."""
        return list(self.stages.values())

    @property
    def total_wall_s(self) -> float:
        return sum(stage.wall_s for stage in self.stages.values())

    @property
    def total_sim_us(self) -> float:
        return sum(stage.sim_us for stage in self.stages.values())

    @property
    def total_bytes_read(self) -> int:
        return sum(stage.bytes_read for stage in self.stages.values())

    def __repr__(self) -> str:
        stages = ", ".join(
            f"{s.name}={s.sim_us:.1f}us" for s in self.stages.values())
        return f"TraceContext(#{self.request_id}: {stages})"


def span(trace: TraceContext | None, name: str):
    """``trace.stage(name)``, or a no-op context when tracing is off.

    Lets stages accept ``trace=None`` (direct unit-test invocation)
    without branching at every call site.
    """
    if trace is None:
        return contextlib.nullcontext()
    return trace.stage(name)
