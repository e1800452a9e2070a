"""Token-bucket admission and deficit-round-robin fairness units."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.frontdoor import (DeficitRoundRobin, Request, RequestStatus,
                             TenantPolicy, TokenBucket)
from repro.frontdoor.admission import BURST, DRR_QUANTUM


def make_request(request_id: int, tenant: str, arrival_us: float,
                 slo_us: float = 50_000.0) -> Request:
    return Request(request_id=request_id, tenant=tenant,
                   query=np.zeros(4, dtype=np.float32), k=5,
                   arrival_us=arrival_us, slo_us=slo_us)


def drain(bucket: TokenBucket, now_us: float) -> None:
    """Spend the whole burst at ``now_us``."""
    assert all(bucket.admit(now_us) for _ in range(BURST))


def door_requests(queries, tenants, arrivals) -> list[Request]:
    """One door-servable request per (tenant, arrival) pair."""
    return [Request(request_id=i, tenant=tenant,
                    query=queries[i % len(queries)], k=5,
                    arrival_us=arrival, slo_us=50_000.0)
            for i, (tenant, arrival) in enumerate(zip(tenants, arrivals))]


class TestTokenBucket:
    def test_unlimited_rate_admits_everything(self, make_door,
                                              small_dataset):
        """A tenant whose policy sets no rate gets no bucket at all."""
        door = make_door(tenants={"free": TenantPolicy()})
        assert door.buckets == {}
        report = door.run(door_requests(
            small_dataset.queries, ["free"] * 4 * BURST, [0.0] * 4 * BURST))
        assert report.shed_admission == 0

    def test_burst_then_dry(self):
        bucket = TokenBucket(rate_qps=1000.0)
        drain(bucket, 0.0)
        assert not bucket.admit(0.0)

    def test_lazy_refill_at_rate(self):
        # 1000 qps = one token per 1000 us.
        bucket = TokenBucket(rate_qps=1000.0)
        drain(bucket, 0.0)
        assert not bucket.admit(100.0)
        assert bucket.admit(1100.0)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate_qps=1000.0)
        drain(bucket, 0.0)
        # A long idle gap refills to the cap, not beyond it.
        drain(bucket, 1e9)
        assert not bucket.admit(1e9)

    def test_validation(self):
        """A bucket's rate is validated once, by the policy it comes
        from; the bucket itself holds ``BURST`` tokens."""
        with pytest.raises(ConfigError, match="rate_qps"):
            TenantPolicy(rate_qps=0.0)
        assert TokenBucket(rate_qps=100.0).capacity == BURST


class TestTenantPolicy:
    @pytest.mark.parametrize("kwargs", [
        {"weight": 0.0},
        {"rate_qps": -1.0},
        {"rate_qps": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            TenantPolicy(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["weight", "rate_qps"])
    def test_non_finite_refused(self, field, value):
        """A NaN passes every range check: as a weight or an arrival it
        hung ``FrontDoor.run``, as a rate it admitted everything."""
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            TenantPolicy(**{field: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
@pytest.mark.parametrize("field", ["arrival_us", "slo_us"])
def test_request_times_must_be_finite(field, value):
    fields = {"arrival_us": 0.0, "slo_us": 50_000.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        make_request(0, "t", **fields)


class TestDoorAdmission:
    def test_per_tenant_buckets(self, make_door, small_dataset):
        door = make_door(tenants={"limited": TenantPolicy(rate_qps=1000.0)})
        report = door.run(door_requests(
            small_dataset.queries, ["limited"] * (BURST + 1) + ["other"],
            [0.0] * (BURST + 2)))
        # The burst passes, the next is shed; the unlisted tenant has
        # no bucket: it is never limited.
        assert [o.status is RequestStatus.SHED_ADMISSION
                for o in report.outcomes] == [False] * BURST + [True, False]

    def test_admission_is_a_function_of_arrivals_only(self, make_door,
                                                      small_dataset):
        def run() -> list[bool]:
            door = make_door(tenants={"t": TenantPolicy(rate_qps=2000.0)})
            report = door.run(door_requests(
                small_dataset.queries, ["t"] * 3 * BURST,
                [i * 10.0 for i in range(3 * BURST)]))
            return [o.status is not RequestStatus.SHED_ADMISSION
                    for o in report.outcomes]

        first = run()
        assert first == run()
        assert not all(first)


class TestDeficitRoundRobin:
    def drr(self, policies=None) -> DeficitRoundRobin:
        return DeficitRoundRobin(policies or {})

    def fill(self, drr: DeficitRoundRobin, tenant: str, count: int,
             first_id: int = 0) -> None:
        for i in range(count):
            drr.push(make_request(first_id + i, tenant, float(i)))

    def test_fifo_within_tenant(self):
        drr = self.drr()
        self.fill(drr, "a", 3)
        taken = drr.take(3)
        assert [r.request_id for r in taken] == [0, 1, 2]
        assert drr.pending == 0

    def test_weighted_shares_under_backlog(self):
        drr = self.drr(policies={"heavy": TenantPolicy(weight=3.0)})
        self.fill(drr, "heavy", 60, first_id=0)
        self.fill(drr, "light", 60, first_id=100)
        taken = drr.take(48)
        heavy = sum(1 for r in taken if r.tenant == "heavy")
        # quantum x weight = 12 vs 4 per round: a 3:1 split.
        assert heavy == 36
        assert len(taken) == 48

    def test_idle_tenant_forfeits_share(self):
        drr = self.drr()
        self.fill(drr, "busy", 10)
        # No other tenant queued: busy gets every slot.
        assert len(drr.take(10)) == 10

    def test_cursor_persists_across_takes(self):
        drr = self.drr()
        self.fill(drr, "a", 2 * DRR_QUANTUM, first_id=0)
        self.fill(drr, "b", DRR_QUANTUM, first_id=100)
        first = {r.tenant for r in drr.take(DRR_QUANTUM)}
        second = {r.tenant for r in drr.take(DRR_QUANTUM)}
        # The ring resumes at b rather than restarting at a.
        assert (first, second) == ({"a"}, {"b"})

    def test_drained_queue_resets_deficit(self):
        drr = self.drr()
        self.fill(drr, "a", 1)
        drr.take(8)
        # A fresh backlog must not inherit the unused deficit.
        assert drr._deficit["a"] == 0.0

    def test_take_more_than_pending(self):
        drr = self.drr()
        self.fill(drr, "a", 2)
        assert len(drr.take(64)) == 2
        assert drr.take(64) == []

    def test_fractional_weight_still_progresses(self):
        drr = self.drr(policies={"slow": TenantPolicy(weight=0.1)})
        self.fill(drr, "slow", 3)
        # 0.1 deficit per visit: needs sweeps, but must terminate.
        assert len(drr.take(3)) == 3

    def test_oldest_arrival(self):
        drr = self.drr()
        assert drr.oldest_arrival_us() is None
        drr.push(make_request(0, "a", 500.0))
        drr.push(make_request(1, "b", 200.0))
        assert drr.oldest_arrival_us() == 200.0

    def test_quantum_validation(self):
        """One round hands a weight-1.0 tenant exactly ``DRR_QUANTUM``
        slots before the ring moves on."""
        drr = self.drr()
        self.fill(drr, "a", 3 * DRR_QUANTUM, first_id=0)
        self.fill(drr, "b", 3 * DRR_QUANTUM, first_id=100)
        tenants = [r.tenant for r in drr.take(2 * DRR_QUANTUM)]
        assert tenants == ["a"] * DRR_QUANTUM + ["b"] * DRR_QUANTUM
