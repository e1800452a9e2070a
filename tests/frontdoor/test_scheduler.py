"""The door's dispatch rule through ``FrontDoor.run``: deadline shedding,
one engine call per ``(k, ef)`` in EDF order, and honest degradation."""

from __future__ import annotations

import pytest

from repro.core.config import FrontDoorConfig
from repro.frontdoor import Request, RequestStatus


@pytest.fixture()
def requests(small_dataset):
    """``count`` requests arriving at once; ``specs`` overrides fields
    of the first ones, one dict each."""
    def make(count: int = 1, *specs: dict, **common) -> list[Request]:
        out = []
        for i in range(count):
            fields = {"request_id": i, "tenant": "t",
                      "query": small_dataset.queries[i], "k": 5,
                      "arrival_us": 0.0, "slo_us": 10_000.0,
                      "ef_search": 64, **common}
            fields.update(specs[i] if i < len(specs) else {})
            out.append(Request(**fields))
        return out
    return make


@pytest.fixture()
def run(make_door):
    def serve(requests, **config):
        config.setdefault("max_wait_us", 2000.0)
        return make_door(FrontDoorConfig(**config)).run(requests)
    return serve


class TestShedding:
    def test_expired_requests_are_shed(self, run, requests):
        report = run(requests(2, {"slo_us": 1000.0}, {"slo_us": 99_000.0}),
                     max_wait_us=5000.0)
        (wave,) = report.waves
        assert (wave.shed_ids, wave.request_ids) == ((0,), (1,))
        assert [o.status for o in report.outcomes] == [
            RequestStatus.SHED_DEADLINE, RequestStatus.OK]

    def test_shed_late_off_keeps_expired(self, run, requests):
        report = run(requests(1, {"slo_us": 1000.0}), max_wait_us=5000.0,
                     shed_late=False)
        (wave,) = report.waves
        assert (wave.shed_ids, wave.request_ids) == ((), (0,))
        assert report.outcomes[0].status is RequestStatus.OK


class TestGrouping:
    def test_one_group_per_k_ef(self, run, requests):
        report = run(requests(4, {"ef_search": 32}, {"ef_search": 32},
                              {"ef_search": 64},
                              {"k": 3, "ef_search": None}))
        (wave,) = report.waves
        assert set(wave.groups) == {(5, 32, 2), (5, 64, 1), (3, 6, 1)}

    def test_group_order_follows_edf_order(self, run, requests):
        # The later request has the earlier deadline: its (k, ef) is
        # the wave's first engine call.
        report = run(requests(2, {"slo_us": 2e6, "ef_search": 16},
                              {"slo_us": 1e6, "ef_search": 64}))
        (wave,) = report.waves
        assert [ef for _, ef, _ in wave.groups] == [64, 16]
        assert wave.request_ids == (1, 0)


class TestDegradation:
    def test_disabled_without_degraded_ef(self, run, requests):
        report = run(requests(40), max_batch=4)
        assert not any(w.degraded for w in report.waves)
        assert report.degraded == 0

    def test_threshold_in_waves(self, run, requests):
        # max_batch 4: degrade once more than two full waves (8) are
        # still queued after the wave boards.
        at_threshold = run(requests(4 + 8), max_batch=4, degraded_ef=8)
        past_it = run(requests(4 + 9), max_batch=4, degraded_ef=8)
        assert not at_threshold.waves[0].degraded
        assert past_it.waves[0].degraded

    def test_degraded_wave_clamps_ef(self, run, requests):
        report = run(requests(10), max_batch=2, degraded_ef=8)
        wave = report.waves[0]
        assert wave.degraded and wave.groups == ((5, 8, 2),)
        for outcome in report.outcomes:
            if outcome.wave_id == wave.wave_id:
                assert outcome.status is RequestStatus.DEGRADED
                assert outcome.ef_used == 8

    def test_degradation_never_raises_a_beam(self, run, requests):
        report = run(requests(10, ef_search=16), max_batch=2,
                     degraded_ef=48)
        assert report.waves[0].degraded
        assert report.waves[0].groups == ((5, 16, 2),)

    def test_degradation_never_goes_below_k(self, run, requests):
        report = run(requests(10), max_batch=2, degraded_ef=2)
        assert report.waves[0].degraded
        assert report.waves[0].groups == ((5, 5, 2),)

    def test_quiet_backlog_stays_undegraded(self, run, requests):
        report = run(requests(1), max_batch=4, degraded_ef=8)
        assert not report.waves[0].degraded
        assert report.waves[0].groups == ((5, 64, 1),)
        assert report.outcomes[0].status is RequestStatus.OK
