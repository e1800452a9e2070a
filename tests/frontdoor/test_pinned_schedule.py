"""One fixed arrival list through the door, every decision path engaged.

The replay tests compare two runs of the same code with each other; this
one pins the door's decisions to constants, so a refactor of the loop
that moves any admission, shed, degrade, grouping or DRR choice — or
any request's completion time or answer — fails here.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro.core.config import FrontDoorConfig
from repro.frontdoor import (RequestStatus, TenantPolicy, make_requests,
                             poisson_arrivals)

CONFIG = FrontDoorConfig(max_wait_us=500.0, max_batch=8, degraded_ef=12)
#: A rate-limited tenant (sheds past its burst) and unequal DRR weights.
TENANTS = {"limited": TenantPolicy(rate_qps=2000.0),
           "heavy": TenantPolicy(weight=3.0),
           "light": TenantPolicy(weight=1.0)}

SCHEDULE_SHA256 = (
    "c46db6a762141feada7786a14bf24f565db8d4f2b15338c347d2b3a5b4b0f82d")
OUTCOMES_SHA256 = (
    "e22c2b6055a20dac8aace139f1845766c3e79d9857724d1465de594919681e2e")


def pinned_requests(queries: np.ndarray) -> list:
    """160 arrivals at 400k qps: a backlog deep enough to degrade, two
    beam widths per wave, and every fifth request on a tight SLO."""
    rng = np.random.default_rng(2024)
    arrivals = poisson_arrivals(400_000.0, 160, rng)
    requests = make_requests(arrivals, queries, k=10, slo_us=50_000.0,
                             rng=rng, tenants=tuple(TENANTS),
                             tenant_weights=(2.0, 1.0, 1.0))
    return [dataclasses.replace(
        request, ef_search=32 if index % 2 else 48,
        slo_us=300.0 if index % 5 == 0 else request.slo_us)
        for index, request in enumerate(requests)]


def sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_the_door_decides_as_pinned(make_door, small_dataset):
    report = make_door(CONFIG, tenants=TENANTS).run(
        pinned_requests(small_dataset.queries))

    # Every decision path ran.
    assert report.shed_admission > 0
    assert report.shed_deadline > 0
    assert report.degraded > 0
    assert any(len(wave.groups) >= 2 for wave in report.waves)
    by_tenant = {t.tenant: t for t in report.tenants()}
    assert by_tenant["limited"].shed_admission > 0
    assert (by_tenant["heavy"].p50_queue_delay_us
            < by_tenant["light"].p50_queue_delay_us)

    outcomes = [(o.request.request_id, o.status.value, o.complete_us,
                 None if o.ids is None else o.ids.tolist())
                for o in report.outcomes]
    assert [o[0] for o in outcomes] == list(range(160))
    assert {o[1] for o in outcomes} == {s.value for s in RequestStatus}
    assert sha256(report.schedule_signature()) == SCHEDULE_SHA256
    assert sha256(outcomes) == OUTCOMES_SHA256
