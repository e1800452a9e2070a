"""Wave forming through ``FrontDoor.run``: the trigger (full, or the
oldest request's wait budget spent), the boundary contract, EDF order
and the ``max_batch`` cap."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.config import FrontDoorConfig
from repro.frontdoor import Request


@pytest.fixture()
def request_at(small_dataset):
    def make(request_id: int, arrival_us: float, tenant: str = "t",
             slo_us: float = 50_000.0) -> Request:
        return Request(request_id=request_id, tenant=tenant,
                       query=small_dataset.queries[request_id], k=5,
                       arrival_us=arrival_us, slo_us=slo_us)
    return make


@pytest.fixture()
def run(make_door):
    """Serve ``requests``; fail instead of hanging if the loop spins."""
    def serve(requests, max_wait_us: float = 2000.0, max_batch: int = 4):
        door = make_door(FrontDoorConfig(max_wait_us=max_wait_us,
                                         max_batch=max_batch))
        due, turns = door._due_us, itertools.count()

        def bounded():
            assert next(turns) < 100, "the loop spins"
            return due()

        door._due_us = bounded
        return door.run(requests)
    return serve


class TestTriggers:
    def test_empty_never_ready(self, run):
        report = run([])
        assert report.waves == () and report.outcomes == ()

    def test_full_batch_is_ready_immediately(self, run, request_at,
                                             fresh_client):
        """A full batch forms the instant its last member is routed:
        each arrival's meta-HNSW walk is charged at its admission."""
        requests = [request_at(0, 100.0), request_at(1, 100.0)]
        report = run(requests, max_batch=2)
        walk = fresh_client.engine.planner.walk(
            np.stack([r.query for r in requests]))
        charge = fresh_client.node.cost_model.compute_us
        dim = fresh_client.meta.dim
        routed_us = 100.0
        for evaluations in walk.evaluations:
            routed_us += charge(evaluations, dim)
        assert report.waves[0].formed_us == routed_us
        assert report.waves[0].request_ids == (0, 1)

    def test_wait_budget_trigger(self, run, request_at):
        report = run([request_at(0, 100.0)], max_wait_us=2000.0)
        assert [w.formed_us for w in report.waves] == [2100.0]

    def test_due_is_oldest_plus_budget(self, run, request_at):
        report = run([request_at(0, 300.0, tenant="a"),
                      request_at(1, 700.0, tenant="b")])
        assert [w.formed_us for w in report.waves] == [300.0 + 2000.0]
        assert report.waves[0].occupancy == 2

    @pytest.mark.parametrize("arrival", [
        0.0, 1.0 / 3.0, 1e5 + 1.0 / 3.0, 2.0**40 + 0.1, 9.87654321e8,
        # (arrival + 2000) - arrival == 2000 - 2**-39 in float64.
        14559.974924812313,
    ])
    def test_ready_at_due_exactly(self, run, request_at, arrival):
        """The loop advances the clock to the due time and must dispatch
        there.  ``(oldest + wait) - oldest`` can round below ``wait`` in
        float64, so the trigger compares against the sum — the
        regression that once spun the loop forever."""
        report = run([request_at(0, arrival)])
        assert [w.formed_us for w in report.waves] == [arrival + 2000.0]


class TestFormation:
    def test_edf_order_with_id_tiebreak(self, run, request_at):
        # DRR takes tenant a's 2 and 0, then b's 1; 2 and 1 share a
        # deadline, so only the id tie-break puts 1 first.
        report = run([request_at(2, 0.0, tenant="a", slo_us=3000.0),
                      request_at(1, 100.0, tenant="b", slo_us=2900.0),
                      request_at(0, 100.0, tenant="a", slo_us=9000.0)],
                     max_batch=8)
        (wave,) = report.waves
        assert (wave.wave_id, wave.formed_us) == (0, 2000.0)
        assert wave.request_ids == (1, 2, 0)

    def test_form_caps_at_max_batch(self, run, request_at):
        report = run([request_at(i, float(i)) for i in range(5)],
                     max_batch=2)
        assert [w.occupancy for w in report.waves] == [2, 2, 1]
        assert report.waves[0].request_ids == (0, 1)
