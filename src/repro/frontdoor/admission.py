"""Per-tenant admission control and weighted fair queueing.

Two mechanisms keep one tenant from starving the rest:

* :class:`TokenBucket` — rate-limits each tenant whose policy sets a
  rate, at the door.  Requests beyond the bucket are shed *before*
  queueing, so an abusive tenant cannot even inflate queue depth.
  Refill is computed lazily from the arrival timestamps, making
  admission a pure function of the arrival sequence — independent of
  engine service times, hence replayable.  A tenant with no rate has no
  bucket and is always admitted.
* :class:`DeficitRoundRobin` — weighted fair selection over per-tenant
  FIFO queues when waves form.  While several tenants are backlogged,
  each receives wave slots in proportion to its weight (the classic DRR
  guarantee); an idle tenant's unused share flows to the busy ones.

:class:`~repro.frontdoor.door.FrontDoor` holds one bucket per rated
tenant and one set of queues.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Mapping

from repro.core.config import _require_finite
from repro.errors import ConfigError
from repro.frontdoor.request import Request

__all__ = ["DeficitRoundRobin", "TenantPolicy", "TokenBucket"]

#: Token-bucket capacity: the burst a rate-limited tenant may send at once.
BURST = 32
#: Requests a weight-1.0 tenant dispatches per deficit-round-robin round.
DRR_QUANTUM = 4
#: DRR weight of a tenant without a policy.
DEFAULT_WEIGHT = 1.0


@dataclasses.dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant overrides of the front door's defaults."""

    #: DRR weight: share of wave slots under contention.
    weight: float = DEFAULT_WEIGHT
    #: Sustained admission rate (a bucket of ``BURST`` tokens); ``None``
    #: admits everything.
    rate_qps: float | None = None

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.weight <= 0.0:
            raise ConfigError(f"weight must be > 0, got {self.weight}")
        if self.rate_qps is not None and self.rate_qps <= 0.0:
            raise ConfigError(
                f"rate_qps must be > 0 (or None for unlimited), got "
                f"{self.rate_qps}")


class TokenBucket:
    """A lazily refilled token bucket on the simulated clock.

    ``admit`` timestamps must be non-decreasing (arrivals are processed
    in order); the bucket never consults wall time.  ``rate_qps`` is a
    :class:`TenantPolicy`'s, validated there.
    """

    def __init__(self, rate_qps: float) -> None:
        self.rate_qps = rate_qps
        self.capacity = float(BURST)
        self.tokens = float(BURST)
        self._last_us = 0.0

    def admit(self, now_us: float) -> bool:
        """Spend one token at ``now_us``; False when the bucket is dry."""
        if now_us > self._last_us:
            self.tokens = min(
                self.capacity,
                self.tokens + (now_us - self._last_us) * self.rate_qps / 1e6)
            self._last_us = now_us
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class DeficitRoundRobin:
    """Weighted deficit round-robin over per-tenant FIFO queues.

    Tenants join the ring in first-seen order (a function of the arrival
    sequence, so deterministic).  Each :meth:`take` resumes the ring
    where the previous wave left off; a tenant whose queue drains
    forfeits its residual deficit (standard DRR — deficits only
    accumulate while backlogged).
    """

    def __init__(self, policies: Mapping[str, TenantPolicy]) -> None:
        self._policies = dict(policies)
        self._queues: dict[str, deque[Request]] = {}
        self._deficit: dict[str, float] = {}
        self._ring: list[str] = []
        self._cursor = 0
        self._pending = 0

    def _weight(self, tenant: str) -> float:
        policy = self._policies.get(tenant)
        return policy.weight if policy is not None else DEFAULT_WEIGHT

    # -- queue state ----------------------------------------------------
    @property
    def pending(self) -> int:
        """Requests waiting across all tenants."""
        return self._pending

    def oldest_arrival_us(self) -> float | None:
        """Arrival time of the longest-waiting request, if any."""
        oldest = None
        for queue in self._queues.values():
            if queue and (oldest is None or queue[0].arrival_us < oldest):
                oldest = queue[0].arrival_us
        return oldest

    def push(self, request: Request) -> None:
        """Enqueue an admitted request on its tenant's FIFO."""
        queue = self._queues.get(request.tenant)
        if queue is None:
            queue = self._queues[request.tenant] = deque()
            self._deficit[request.tenant] = 0.0
            self._ring.append(request.tenant)
        queue.append(request)
        self._pending += 1

    # -- wave selection -------------------------------------------------
    def take(self, max_n: int) -> list[Request]:
        """Dequeue up to ``max_n`` requests, weight-fairly across tenants."""
        if max_n < 1 or not self._pending:
            return []
        out: list[Request] = []
        ring_size = len(self._ring)
        idle_sweeps = 0
        while len(out) < max_n and self._pending:
            tenant = self._ring[self._cursor % ring_size]
            self._cursor = (self._cursor + 1) % ring_size
            queue = self._queues[tenant]
            if not queue:
                self._deficit[tenant] = 0.0
                idle_sweeps += 1
                if idle_sweeps > ring_size:  # pragma: no cover — guard
                    break
                continue
            idle_sweeps = 0
            self._deficit[tenant] += DRR_QUANTUM * self._weight(tenant)
            while queue and self._deficit[tenant] >= 1.0 and len(out) < max_n:
                self._deficit[tenant] -= 1.0
                out.append(queue.popleft())
                self._pending -= 1
            if not queue:
                self._deficit[tenant] = 0.0
        return out
