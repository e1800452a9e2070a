"""Load generation: arrival processes on the simulated clock.

Serving papers evaluate under *arrival processes*, not pre-formed
batches.  This module generates two open-loop shapes —

* :func:`poisson_arrivals` — memoryless steady-state traffic;
* :func:`bursty_arrivals` — on/off (interrupted Poisson) traffic, the
  adversary of any latency-budget batcher;

— plus :func:`make_requests` to attach tenants/queries/SLOs to arrival
times.  Everything is drawn from a caller-provided seeded
``numpy.random.Generator``, so a workload is replayable from its seed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigError
from repro.frontdoor.request import Request

__all__ = ["bursty_arrivals", "make_requests", "poisson_arrivals"]


def poisson_arrivals(rate_qps: float, count: int,
                     rng: np.random.Generator,
                     start_us: float = 0.0) -> np.ndarray:
    """``count`` Poisson arrival times at ``rate_qps`` (float64 µs)."""
    if rate_qps <= 0.0:
        raise ConfigError(f"rate_qps must be > 0, got {rate_qps}")
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    gaps = rng.exponential(1e6 / rate_qps, size=count)
    return start_us + np.cumsum(gaps)


def bursty_arrivals(burst_rate_qps: float, idle_rate_qps: float,
                    burst_us: float, idle_us: float, count: int,
                    rng: np.random.Generator,
                    start_us: float = 0.0) -> np.ndarray:
    """Interrupted-Poisson arrivals: alternating hot and quiet phases.

    The process alternates ``burst_us`` of ``burst_rate_qps`` traffic
    with ``idle_us`` of ``idle_rate_qps`` (often near zero), starting in
    a burst.  Gaps that straddle a phase boundary are re-drawn in the
    next phase — the standard thinning-free construction, exact enough
    for benchmarking and fully determined by ``rng``.
    """
    if burst_rate_qps <= 0.0 or idle_rate_qps < 0.0:
        raise ConfigError("burst_rate_qps must be > 0 and idle_rate_qps "
                          ">= 0")
    if burst_us <= 0.0 or idle_us < 0.0:
        raise ConfigError("burst_us must be > 0 and idle_us >= 0")
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    arrivals = np.empty(count, dtype=np.float64)
    now = start_us
    phase_end = start_us + burst_us
    in_burst = True
    produced = 0
    while produced < count:
        rate = burst_rate_qps if in_burst else idle_rate_qps
        if rate > 0.0:
            gap = rng.exponential(1e6 / rate)
            candidate = now + gap
        else:
            candidate = phase_end
        if candidate < phase_end:
            arrivals[produced] = candidate
            now = candidate
            produced += 1
        else:
            now = phase_end
            in_burst = not in_burst
            phase_end += burst_us if in_burst else idle_us
    return arrivals


def make_requests(arrival_us: np.ndarray, queries: np.ndarray, k: int,
                  slo_us: float, rng: np.random.Generator,
                  tenants: Sequence[str] = ("tenant0",),
                  tenant_weights: Sequence[float] | None = None,
                  ef_search: int | None = None,
                  first_request_id: int = 0) -> list[Request]:
    """Attach tenants and queries to arrival times.

    Query rows are consumed cyclically from ``queries`` (arrival *i*
    gets row ``i % len(queries)``), so the query sequence — and with it
    the bit-identity oracle's input — is independent of tenant
    assignment.  Tenants are drawn per arrival from ``tenant_weights``
    (uniform when omitted) using ``rng``.
    """
    if queries.ndim != 2 or not len(queries):
        raise ConfigError("queries must be a non-empty 2-D array")
    if not tenants:
        raise ConfigError("need at least one tenant")
    if tenant_weights is not None:
        if len(tenant_weights) != len(tenants):
            raise ConfigError(
                f"{len(tenant_weights)} weights for {len(tenants)} tenants")
        probabilities = np.asarray(tenant_weights, dtype=np.float64)
        probabilities = probabilities / probabilities.sum()
    else:
        probabilities = None
    picks = rng.choice(len(tenants), size=len(arrival_us), p=probabilities)
    return [
        Request(request_id=first_request_id + index,
                tenant=tenants[int(picks[index])],
                query=queries[index % len(queries)], k=k,
                arrival_us=float(arrival_us[index]), slo_us=slo_us,
                ef_search=ef_search)
        for index in range(len(arrival_us))
    ]
