"""SLO-aware dispatch: deadline ordering, shedding, and ef degradation.

The scheduler turns a formed wave into dispatch instructions:

* requests whose deadline already passed when the wave formed are shed
  (``shed_late``) — answering them cannot meet the SLO, and the engine
  time is better spent on requests that still can;
* under overload (post-wave backlog beyond ``DEGRADE_BACKLOG_WAVES``
  full waves) the whole wave dispatches with the calibrated
  ``degraded_ef`` beam width instead of each request's own — recall is
  traded for drain rate, and every affected request is marked
  :attr:`~repro.frontdoor.request.RequestStatus.DEGRADED` so the
  downgrade is never silent;
* survivors are grouped by ``(k, ef)`` — one engine call per group, in
  earliest-deadline order — so a heterogeneous wave still amortizes the
  doorbell.

``resolve_ef`` is the serving engine's own resolution rule (explicit,
else the paper's ``2k``), reused so the front door and a
direct ``search_batch`` call agree on beam widths — the bit-identity
contract depends on it.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from repro.core.config import FrontDoorConfig
from repro.core.tuning import tune_ef_search
from repro.frontdoor.batch_former import FormedWave
from repro.frontdoor.request import Request

__all__ = ["DispatchGroup", "DispatchPlan", "SloScheduler",
           "calibrate_degraded_ef"]

#: Backlog, in full waves (units of ``max_batch``), beyond which a wave
#: dispatches with ``FrontDoorConfig.degraded_ef``.
DEGRADE_BACKLOG_WAVES = 2.0


@dataclasses.dataclass(frozen=True)
class DispatchGroup:
    """Requests sharing one engine call: same ``k``, same ``ef``."""

    k: int
    ef: int
    requests: tuple[Request, ...]


@dataclasses.dataclass(frozen=True)
class DispatchPlan:
    """The scheduler's verdict on one wave."""

    groups: tuple[DispatchGroup, ...]
    shed: tuple[Request, ...]
    degraded: bool

    @property
    def dispatched(self) -> int:
        return sum(len(group.requests) for group in self.groups)


class SloScheduler:
    """Deadline-ordered, overload-aware dispatch policy."""

    def __init__(self, config: FrontDoorConfig,
                 resolve_ef: Callable[[int, int | None], int]) -> None:
        self.config = config
        self._resolve_ef = resolve_ef

    def overloaded(self, backlog: int) -> bool:
        """Is the queue deep enough to justify degrading recall?"""
        if self.config.degraded_ef is None:
            return False
        threshold = DEGRADE_BACKLOG_WAVES * self.config.max_batch
        return backlog > threshold

    def plan(self, wave: FormedWave, backlog: int) -> DispatchPlan:
        """Decide shedding, beam widths, and engine-call grouping.

        ``backlog`` is the number of requests still queued *after* this
        wave boarded — the pressure signal for degradation.  The wave's
        requests arrive EDF-ordered and group order preserves that, so
        the earliest deadline group reaches the engine first.
        """
        shed: list[Request] = []
        live: list[Request] = []
        for request in wave.requests:
            if self.config.shed_late and wave.formed_us > request.deadline_us:
                shed.append(request)
            else:
                live.append(request)

        degraded = bool(live) and self.overloaded(backlog)
        groups: dict[tuple[int, int], list[Request]] = {}
        for request in live:
            ef = self._resolve_ef(request.k, request.ef_search)
            if degraded:
                # Never degrade below k (the engine's floor) and never
                # *raise* a request's beam in the name of degradation.
                ef = min(ef, max(self.config.degraded_ef, request.k))
            groups.setdefault((request.k, ef), []).append(request)
        return DispatchPlan(
            groups=tuple(DispatchGroup(k=k, ef=ef, requests=tuple(members))
                         for (k, ef), members in groups.items()),
            shed=tuple(shed), degraded=degraded)


def calibrate_degraded_ef(client, queries: np.ndarray,
                          ground_truth: np.ndarray, k: int,
                          relaxed_recall: float,
                          ef_max: int = 128) -> int:
    """Pick the overload beam width against a *relaxed* recall target.

    A thin wrapper over :func:`repro.core.tuning.tune_ef_search`: the
    degraded mode should still honour some floor (say recall ≥ 0.8 when
    the normal SLO is 0.95), so the knob is calibrated the same way the
    normal operating point is — binary search on a validation set —
    rather than guessed.  Returns the smallest ``ef_search`` meeting
    ``relaxed_recall`` (or ``ef_max`` if nothing does — the caller keeps
    whatever recall that buys).
    """
    result = tune_ef_search(client, queries, ground_truth, k,
                            target_recall=relaxed_recall, ef_max=ef_max)
    return result.ef_search
