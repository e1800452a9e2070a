"""Batch-former triggers, EDF ordering, and the boundary contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import FrontDoorConfig
from repro.frontdoor import BatchFormer, DeficitRoundRobin, Request


def make_request(request_id: int, arrival_us: float, tenant: str = "t",
                 slo_us: float = 50_000.0) -> Request:
    return Request(request_id=request_id, tenant=tenant,
                   query=np.zeros(4, dtype=np.float32), k=5,
                   arrival_us=arrival_us, slo_us=slo_us)


def make_former(max_wait_us: float = 2000.0,
                max_batch: int = 4) -> BatchFormer:
    config = FrontDoorConfig(max_wait_us=max_wait_us, max_batch=max_batch)
    return BatchFormer(config, DeficitRoundRobin({}))


class TestTriggers:
    def test_empty_never_ready(self):
        former = make_former()
        assert not former.ready(1e9)
        assert former.due_us() is None

    def test_full_batch_is_ready_immediately(self):
        former = make_former(max_batch=2)
        former.offer(make_request(0, 100.0))
        former.offer(make_request(1, 100.0))
        assert former.ready(100.0)

    def test_wait_budget_trigger(self):
        former = make_former(max_wait_us=2000.0)
        former.offer(make_request(0, 100.0))
        assert not former.ready(2099.0)
        assert former.ready(2100.0)

    def test_due_is_oldest_plus_budget(self):
        former = make_former(max_wait_us=2000.0)
        former.offer(make_request(0, 300.0, tenant="a"))
        former.offer(make_request(1, 700.0, tenant="b"))
        assert former.due_us() == 300.0 + 2000.0

    @pytest.mark.parametrize("arrival", [
        0.0, 1.0 / 3.0, 1e5 + 1.0 / 3.0, 2.0**40 + 0.1, 9.87654321e8,
    ])
    def test_ready_at_due_exactly(self, arrival):
        """The event loop advances the clock to due_us() and expects a
        dispatch.  `(oldest + wait) - oldest` can round below `wait` in
        float64, so ready() must use the same arithmetic as due_us() —
        the regression that once spun the loop forever."""
        former = make_former(max_wait_us=2000.0)
        former.offer(make_request(0, arrival))
        assert former.ready(former.due_us())


class TestFormation:
    def test_edf_order_with_id_tiebreak(self):
        former = make_former(max_batch=8)
        former.offer(make_request(0, 0.0, slo_us=9000.0))
        former.offer(make_request(1, 0.0, slo_us=3000.0))
        former.offer(make_request(2, 0.0, slo_us=3000.0))
        wave = former.form(100.0, wave_id=7)
        assert wave.wave_id == 7
        assert wave.formed_us == 100.0
        assert [r.request_id for r in wave.requests] == [1, 2, 0]

    def test_form_caps_at_max_batch(self):
        former = make_former(max_batch=2)
        for i in range(5):
            former.offer(make_request(i, float(i)))
        wave = former.form(10.0, wave_id=0)
        assert wave.occupancy == 2
        assert former.pending == 3
