"""Request and outcome records of the multi-tenant front door.

A :class:`Request` is one tenant's single-query call as it arrives at the
front door — before batching, admission, or scheduling have touched it.
A :class:`RequestOutcome` is the same request after the front door is done
with it: answered (possibly with a degraded beam width) or shed, with the
queue delay and end-to-end latency it experienced on the simulated clock.

Everything here is plain data so schedules built from these records can be
compared across runs (the determinism contract: same arrival sequence +
same seed ⇒ identical outcomes).
"""

from __future__ import annotations

import dataclasses
import enum
import math

import numpy as np

__all__ = ["Request", "RequestOutcome", "RequestStatus"]


class RequestStatus(enum.Enum):
    """Terminal state of one front-door request."""

    #: Answered with the requested (or default) beam width.
    OK = "ok"
    #: Answered, but with the overload-degraded ``ef_search`` — the
    #: answer is honest but may recall less than the tenant asked for.
    DEGRADED = "degraded"
    #: Rejected by the tenant's token bucket before queueing.
    SHED_ADMISSION = "shed-admission"
    #: Dropped at dispatch: its deadline had already passed.
    SHED_DEADLINE = "shed-deadline"

    @property
    def answered(self) -> bool:
        return self in (RequestStatus.OK, RequestStatus.DEGRADED)


@dataclasses.dataclass(frozen=True)
class Request:
    """One single-query request as it arrives at the front door."""

    request_id: int
    tenant: str
    query: np.ndarray
    k: int
    arrival_us: float
    #: End-to-end latency budget; ``deadline_us`` derives from it.
    slo_us: float
    #: Explicit beam width; ``None`` defers to the engine's
    #: ``resolve_ef`` (config default, else the paper's ``2k`` rule).
    ef_search: int | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        for name in ("arrival_us", "slo_us"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if self.slo_us <= 0.0:
            raise ValueError(f"slo_us must be > 0, got {self.slo_us}")

    @property
    def deadline_us(self) -> float:
        """Absolute simulated time by which the answer is due."""
        return self.arrival_us + self.slo_us


@dataclasses.dataclass(frozen=True)
class RequestOutcome:
    """What happened to one request, with full timing attribution."""

    request: Request
    status: RequestStatus
    #: When the request's wave formed (entered the engine), or its
    #: immediate serve began; NaN for requests shed at admission (they
    #: never queued).
    dispatch_us: float
    #: When this request's answer was final (or the shed decision made):
    #: the end of the last engine wave that searched one of its clusters —
    #: for all but the wave's last-served members, before the wave ends.
    complete_us: float
    #: Wave that carried (or shed) the request; -1 for admission sheds
    #: and immediate serves (which no wave carries).
    wave_id: int
    #: Beam width actually used; 0 when the request was never searched.
    ef_used: int
    ids: np.ndarray | None = None
    distances: np.ndarray | None = None

    @property
    def queue_delay_us(self) -> float:
        """Simulated time spent waiting for a wave (0 for admission sheds)."""
        if math.isnan(self.dispatch_us):
            return 0.0
        return self.dispatch_us - self.request.arrival_us

    @property
    def in_wave_us(self) -> float:
        """Simulated time from dispatch to this request's own completion
        (0 for admission sheds): ``latency_us - queue_delay_us``."""
        if math.isnan(self.dispatch_us):
            return 0.0
        return self.complete_us - self.dispatch_us

    @property
    def latency_us(self) -> float:
        """End-to-end simulated latency: arrival → answer/decision."""
        return self.complete_us - self.request.arrival_us

    @property
    def deadline_met(self) -> bool:
        return (self.status.answered
                and self.complete_us <= self.request.deadline_us)
