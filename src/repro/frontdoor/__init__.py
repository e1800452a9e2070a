"""The multi-tenant front door: a request layer over the serving engine.

Production vector search is millions of *independent single-query*
requests, not pre-formed batches.  This package closes that gap: a
deterministic, SimClock-driven event loop that coalesces arrivals into
waves under a latency budget (so the engine's doorbell batching and
cross-query cluster dedup earn their keep), enforces per-tenant
admission and weighted fairness, and dispatches SLO-aware — shedding
dead requests and degrading ``ef_search`` under overload, with every
downgrade accounted.

Layering: ``repro.frontdoor`` sits strictly *above* ``repro.core`` /
``repro.serving`` — it only ever talks to a ``DHnswClient``; it never
touches ``repro.transport`` or the RDMA substrate (enforced by
``tests/test_layering.py``).

Typical usage::

    from repro import Deployment, DHnswConfig
    from repro.frontdoor import (FrontDoor, FrontDoorConfig, TenantPolicy,
                                 make_requests, poisson_arrivals)

    deployment = Deployment(corpus, DHnswConfig(nprobe=4))
    door = FrontDoor(deployment.client(),
                     FrontDoorConfig(max_wait_us=2000, max_batch=64),
                     tenants={"free": TenantPolicy(weight=1, rate_qps=500),
                              "paid": TenantPolicy(weight=4)})
    rng = np.random.default_rng(0)
    requests = make_requests(poisson_arrivals(2000, 1000, rng), queries,
                             k=10, slo_us=50_000, rng=rng,
                             tenants=("free", "paid"))
    report = door.run(requests)
    print(report.queue_delay_percentiles(), report.throughput_qps)
"""

from repro.core.config import FrontDoorConfig
from repro.frontdoor.admission import (DeficitRoundRobin, TenantPolicy,
                                       TokenBucket)
from repro.frontdoor.door import (FrontDoor, ImmediateServe, LoadReport,
                                  TenantReport, WaveRecord)
from repro.frontdoor.loadgen import (bursty_arrivals, make_requests,
                                     poisson_arrivals)
from repro.frontdoor.request import Request, RequestOutcome, RequestStatus

__all__ = [
    "DeficitRoundRobin",
    "FrontDoor",
    "FrontDoorConfig",
    "ImmediateServe",
    "LoadReport",
    "Request",
    "RequestOutcome",
    "RequestStatus",
    "TenantPolicy",
    "TenantReport",
    "TokenBucket",
    "WaveRecord",
    "bursty_arrivals",
    "make_requests",
    "poisson_arrivals",
]
