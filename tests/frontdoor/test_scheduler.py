"""SLO scheduler units: shedding, grouping, and honest degradation."""

from __future__ import annotations

import numpy as np

from repro.core.config import FrontDoorConfig
from repro.frontdoor import FormedWave, Request, SloScheduler


def resolve_ef(k: int, ef_search: int | None) -> int:
    """The engine's rule, stubbed: explicit wins, else the paper's 2k."""
    return ef_search if ef_search is not None else max(2 * k, k)


def make_request(request_id: int, arrival_us: float = 0.0,
                 slo_us: float = 10_000.0, k: int = 5,
                 ef_search: int | None = None) -> Request:
    return Request(request_id=request_id, tenant="t",
                   query=np.zeros(4, dtype=np.float32), k=k,
                   arrival_us=arrival_us, slo_us=slo_us,
                   ef_search=ef_search)


def make_wave(requests, formed_us: float, wave_id: int = 0) -> FormedWave:
    return FormedWave(wave_id=wave_id, formed_us=formed_us,
                      requests=tuple(requests))


def scheduler(**overrides) -> SloScheduler:
    return SloScheduler(FrontDoorConfig(**overrides), resolve_ef)


class TestShedding:
    def test_expired_requests_are_shed(self):
        sched = scheduler()
        wave = make_wave([make_request(0, arrival_us=0.0, slo_us=1000.0),
                          make_request(1, arrival_us=0.0, slo_us=99_000.0)],
                         formed_us=5000.0)
        plan = sched.plan(wave, backlog=0)
        assert [r.request_id for r in plan.shed] == [0]
        assert plan.dispatched == 1

    def test_shed_late_off_keeps_expired(self):
        sched = scheduler(shed_late=False)
        wave = make_wave([make_request(0, arrival_us=0.0, slo_us=1000.0)],
                         formed_us=5000.0)
        plan = sched.plan(wave, backlog=0)
        assert not plan.shed
        assert plan.dispatched == 1


class TestGrouping:
    def test_one_group_per_k_ef(self):
        sched = scheduler()
        wave = make_wave([make_request(0, ef_search=32),
                          make_request(1, ef_search=32),
                          make_request(2, ef_search=64),
                          make_request(3, k=3, ef_search=None)],
                         formed_us=0.0)
        plan = sched.plan(wave, backlog=0)
        assert {(g.k, g.ef, len(g.requests)) for g in plan.groups} == {
            (5, 32, 2), (5, 64, 1), (3, 6, 1)}

    def test_group_order_follows_edf_order(self):
        sched = scheduler()
        # Wave arrives EDF-ordered; the first-seen (k, ef) wins group 0.
        wave = make_wave([make_request(0, slo_us=1e6, ef_search=64),
                          make_request(1, slo_us=2e6, ef_search=16)],
                         formed_us=0.0)
        plan = sched.plan(wave, backlog=0)
        assert plan.groups[0].ef == 64


class TestDegradation:
    def test_disabled_without_degraded_ef(self):
        sched = scheduler(max_batch=4)
        assert not sched.overloaded(backlog=10_000)

    def test_threshold_in_waves(self):
        sched = scheduler(max_batch=4, degraded_ef=8)
        assert not sched.overloaded(backlog=8)
        assert sched.overloaded(backlog=9)

    def test_degraded_wave_clamps_ef(self):
        sched = scheduler(max_batch=2, degraded_ef=8)
        wave = make_wave([make_request(0, ef_search=64)], formed_us=0.0)
        plan = sched.plan(wave, backlog=100)
        assert plan.degraded
        assert plan.groups[0].ef == 8

    def test_degradation_never_raises_a_beam(self):
        sched = scheduler(max_batch=2, degraded_ef=48)
        wave = make_wave([make_request(0, ef_search=16)], formed_us=0.0)
        plan = sched.plan(wave, backlog=100)
        assert plan.groups[0].ef == 16

    def test_degradation_never_goes_below_k(self):
        sched = scheduler(max_batch=2, degraded_ef=2)
        wave = make_wave([make_request(0, k=5, ef_search=64)],
                         formed_us=0.0)
        plan = sched.plan(wave, backlog=100)
        assert plan.groups[0].ef == 5

    def test_quiet_backlog_stays_undegraded(self):
        sched = scheduler(max_batch=4, degraded_ef=8)
        wave = make_wave([make_request(0, ef_search=64)], formed_us=0.0)
        plan = sched.plan(wave, backlog=0)
        assert not plan.degraded
        assert plan.groups[0].ef == 64
