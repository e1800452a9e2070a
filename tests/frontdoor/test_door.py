"""End-to-end front-door behaviour on the shared tiny deployment."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.config import FrontDoorConfig
from repro.errors import ConfigError
from repro.frontdoor import (FrontDoor, Request, RequestStatus, TenantPolicy,
                             make_requests, poisson_arrivals)
from repro.telemetry import DeploymentTelemetry, render_report


def capture_batches(door) -> list:
    """Every ``BatchResult`` the door's client hands back, in order."""
    captured = []
    original = door.client.search_batch

    def capture(*args, **kwargs):
        captured.append(original(*args, **kwargs))
        return captured[-1]

    door.client.search_batch = capture
    return captured


def load(small_dataset, count: int = 60, rate_qps: float = 3000.0,
         seed: int = 9, slo_us: float = 50_000.0, ef_search: int | None = 32,
         tenants=("a", "b"), **make_kwargs):
    rng = np.random.default_rng(seed)
    arrivals = poisson_arrivals(rate_qps, count, rng)
    return make_requests(arrivals, small_dataset.queries, k=10,
                         slo_us=slo_us, rng=rng, tenants=tenants,
                         ef_search=ef_search, **make_kwargs)


class TestOpenLoop:
    def test_serves_everything_and_matches_direct_search(
            self, make_door, fresh_client, small_dataset):
        requests = load(small_dataset)
        door = make_door(FrontDoorConfig(max_wait_us=1500.0, max_batch=8))
        report = door.run(requests)

        assert report.offered == len(requests)
        assert report.served == len(requests)
        assert report.shed_admission == report.shed_deadline == 0
        assert len(report.waves) >= 2
        assert report.mean_occupancy > 1.0

        # The bit-identity contract: coalescing never changes answers.
        queries = np.stack([r.query for r in requests])
        direct = fresh_client.search_batch(queries, 10, ef_search=32)
        for outcome, result in zip(report.outcomes, direct.results):
            assert outcome.status is RequestStatus.OK
            assert np.array_equal(outcome.ids, result.ids)
            assert np.array_equal(outcome.distances, result.distances)

    def test_queue_delay_bounded_by_wait_budget_plus_service(
            self, make_door, small_dataset):
        config = FrontDoorConfig(max_wait_us=1500.0, max_batch=8)
        door = make_door(config)
        report = door.run(load(small_dataset))
        slowest_wave = max(w.service_us for w in report.waves)
        bound = config.max_wait_us + slowest_wave
        for outcome in report.outcomes:
            assert outcome.queue_delay_us <= bound + 1e-6

    def test_schedule_and_histogram_replay(self, make_door, small_dataset):
        requests = load(small_dataset)
        config = FrontDoorConfig(max_wait_us=1500.0, max_batch=8)
        first = make_door(config).run(requests)
        second = make_door(config).run(requests)
        assert first.schedule_signature() == second.schedule_signature()
        assert first.latency_histogram() == second.latency_histogram()
        assert (first.queue_delay_percentiles()
                == second.queue_delay_percentiles())
        assert ([o.complete_us for o in first.outcomes]
                == [o.complete_us for o in second.outcomes])

    def test_unsorted_arrivals_rejected(self, make_door, small_dataset):
        requests = load(small_dataset)
        door = make_door()
        with pytest.raises(ValueError, match="sorted"):
            door.run(list(reversed(requests)))

    def test_zero_wait_budget_is_per_query_dispatch(self, make_door,
                                                    small_dataset):
        requests = load(small_dataset, count=12)
        door = make_door(FrontDoorConfig(max_wait_us=0.0, max_batch=1))
        report = door.run(requests)
        assert len(report.waves) == 12
        assert report.max_occupancy == 1


class TestPerRequestCompletion:
    CONFIG = FrontDoorConfig(max_wait_us=1500.0, max_batch=8)

    def run(self, make_door, small_dataset, **load_kwargs):
        door = make_door(self.CONFIG)
        batches = capture_batches(door)
        report = door.run(load(small_dataset, **load_kwargs))
        # One (k, ef) group per wave here: batch i is wave i's engine call.
        assert len(batches) == len(report.waves)
        return door, batches, report

    def test_completion_lies_inside_the_wave_and_closes_it(
            self, make_door, small_dataset):
        _, batches, report = self.run(make_door, small_dataset)
        by_id = {o.request.request_id: o for o in report.outcomes}
        for wave, batch in zip(report.waves, batches):
            members = [by_id[rid] for rid in wave.request_ids]
            wave_end = wave.formed_us + wave.service_us
            for outcome, stamp in zip(members, batch.complete_us):
                assert outcome.complete_us == stamp
                assert outcome.dispatch_us == wave.formed_us
                assert outcome.dispatch_us < outcome.complete_us
                assert outcome.complete_us <= wave_end + 1e-9
                assert outcome.in_wave_us == pytest.approx(
                    outcome.latency_us - outcome.queue_delay_us)
            assert max(o.complete_us for o in members) == pytest.approx(
                wave_end, abs=1e-9)

    def test_the_oldest_request_leaves_before_the_wave_ends(
            self, make_door, small_dataset):
        """Rows go to the engine earliest deadline first and it fetches
        in row order, so the request that waited out the whole batching
        budget is final as soon as its own clusters are searched: its
        hits and ``ceil(nprobe / capacity)`` fetch waves at most — strictly
        before the end of any batch that runs more."""
        door, batches, report = self.run(make_door, small_dataset,
                                         count=120, rate_qps=6000.0)
        config, cache = door.client.config, door.client.cache
        own_waves = -(-config.nprobe // cache.capacity_clusters)
        by_id = {o.request.request_id: o for o in report.outcomes}
        longer = 0
        for wave, batch in zip(report.waves, batches):
            members = [by_id[rid] for rid in wave.request_ids]
            assert members == sorted(
                members, key=lambda o: (o.request.deadline_us,
                                        o.request.request_id))
            if batch.waves > own_waves:
                longer += 1
                assert members[0].complete_us < max(
                    o.complete_us for o in members)
                assert members[0].in_wave_us < wave.service_us
        assert longer >= 3


class TestImmediateServe:
    """A request whose routed clusters are all cache-resident is served at
    once in a batch of its own — not queued, and not a wave."""

    @pytest.fixture()
    def warm_door(self, roomy_deployment, small_dataset):
        """Factory: a door whose cache holds the first query's clusters."""
        def make(config: FrontDoorConfig):
            client = roomy_deployment.make_client(
                roomy_deployment.client().scheme, name="warm")
            client.search_batch(small_dataset.queries[:1], 5, ef_search=24)
            return FrontDoor(client, config)
        return make

    def request(self, small_dataset, request_id: int, row: int,
                arrival_us: float, slo_us: float = 50_000.0) -> Request:
        return Request(request_id=request_id, tenant="t",
                       query=small_dataset.queries[row], k=5,
                       arrival_us=arrival_us, slo_us=slo_us, ef_search=24)

    def test_resident_requests_skip_the_queue(self, warm_door,
                                              small_dataset):
        door = warm_door(FrontDoorConfig(max_wait_us=2000.0, max_batch=8))
        batches = capture_batches(door)
        requests = [self.request(small_dataset, i, 0, 1000.0 + 100.0 * i)
                    for i in range(4)]
        report = door.run(requests)
        client = door.client
        (evaluations,) = client.engine.planner.walk(
            small_dataset.queries[:1]).evaluations
        routing_us = client.node.cost_model.compute_us(evaluations,
                                                       client.meta.dim)
        assert report.waves == ()
        assert [s.request_id for s in report.immediate] == [0, 1, 2, 3]
        assert report.immediate_share == 1.0
        assert [b.batch_size for b in batches] == [1, 1, 1, 1]
        assert all(b.clusters_fetched == 0 for b in batches)
        for outcome, serve in zip(report.outcomes, report.immediate):
            # Served the instant its routing was charged: no queueing.
            assert outcome.wave_id == -1
            assert outcome.dispatch_us == serve.served_us
            assert outcome.queue_delay_us == pytest.approx(routing_us)
            assert (outcome.dispatch_us < outcome.complete_us
                    <= serve.served_us + serve.service_us + 1e-9)
        direct = door.client.search_batch(
            np.stack([r.query for r in requests]), 5, ef_search=24)
        for outcome, result in zip(report.outcomes, direct.results):
            assert np.array_equal(outcome.ids, result.ids)
            assert np.array_equal(outcome.distances, result.distances)

    def test_a_due_wave_goes_first(self, warm_door, small_dataset):
        # Two cold requests fill a wave; the resident one that arrived
        # with them waits for that wave, then is served at once.
        door = warm_door(FrontDoorConfig(max_wait_us=2000.0, max_batch=2))
        report = door.run([self.request(small_dataset, 0, 0, 1000.0),
                           self.request(small_dataset, 1, 4, 1000.0),
                           self.request(small_dataset, 2, 6, 1000.0)])
        (wave,) = report.waves
        assert wave.request_ids == (1, 2)
        (serve,) = report.immediate
        assert serve.request_id == 0
        assert serve.served_us == wave.formed_us + wave.service_us

    def test_held_requests_wait_out_one_wave_only(self, warm_door,
                                                  small_dataset):
        # Four cold requests make two full waves, both due once the pass
        # ends; the two resident ones that arrived with them wait for the
        # first wave only, and are served back to back before the second.
        door = warm_door(FrontDoorConfig(max_wait_us=2000.0, max_batch=2))
        rows = [0, 0, 4, 6, 4, 6]
        report = door.run([self.request(small_dataset, i, row, 1000.0)
                           for i, row in enumerate(rows)])
        first, second = report.waves
        assert first.request_ids == (2, 3)
        assert second.request_ids == (4, 5)
        held = report.immediate
        assert [s.request_id for s in held] == [0, 1]
        assert held[0].served_us == first.formed_us + first.service_us
        assert held[1].served_us == held[0].served_us + held[0].service_us
        assert second.formed_us == held[1].served_us + held[1].service_us

    def test_a_late_request_is_left_to_the_wave(self, warm_door,
                                               small_dataset):
        # Past its deadline once routed: queued, and the wave sheds it.
        door = warm_door(FrontDoorConfig(max_wait_us=2000.0, max_batch=8))
        report = door.run([self.request(small_dataset, 0, 0, 1000.0,
                                        slo_us=0.1)])
        assert report.immediate == ()
        (wave,) = report.waves
        assert wave.shed_ids == (0,)
        assert report.outcomes[0].status is RequestStatus.SHED_DEADLINE


class TestAdmissionPath:
    def test_rate_limited_tenant_sheds_with_honest_outcome(
            self, make_door, small_dataset):
        # Past the bucket's 32-request burst, 500 qps refills one token
        # per 20 arrivals at 10,000 qps.
        requests = load(small_dataset, count=60, rate_qps=10_000.0,
                        tenants=("limited",))
        door = make_door(
            FrontDoorConfig(max_wait_us=1500.0, max_batch=8),
            tenants={"limited": TenantPolicy(rate_qps=500.0)})
        report = door.run(requests)
        assert report.shed_admission > 0
        assert report.served + report.shed_admission == report.offered
        shed = [o for o in report.outcomes
                if o.status is RequestStatus.SHED_ADMISSION]
        for outcome in shed:
            assert math.isnan(outcome.dispatch_us)
            assert outcome.queue_delay_us == 0.0
            assert outcome.wave_id == -1
            assert outcome.ids is None


class TestRoutingOverload:
    def test_arrivals_faster_than_routing_do_not_hold_a_wave_back(
            self, make_door, small_dataset):
        """Each admission charges a routing walk; arrivals three to a
        walk keep the door admitting, yet the first wave forms within one
        walk of its timer, while requests still arrive, and every later
        one within the batching budget (and one walk) of the door
        finishing the wave and serves before it."""
        door = make_door(FrontDoorConfig(max_wait_us=20.0, max_batch=1000))
        client = door.client
        queries = small_dataset.queries
        walk = client.engine.planner.walk(queries)
        charges = [client.node.cost_model.compute_us(evaluations,
                                                     client.meta.dim)
                   for evaluations in walk.evaluations]
        gap_us = min(charges) / 3.0
        requests = [Request(request_id=i, tenant="t",
                            query=queries[i % len(queries)], k=5,
                            arrival_us=gap_us * i, slo_us=1e9)
                    for i in range(600)]
        report = door.run(requests)
        assert report.served == 600
        first = report.waves[0]
        assert 20.0 <= first.formed_us <= 20.0 + max(charges)
        assert first.formed_us < requests[-1].arrival_us
        assert len(report.waves) >= 2
        for before, wave in zip(report.waves, report.waves[1:]):
            free_us = before.formed_us + before.service_us + sum(
                serve.service_us for serve in report.immediate
                if before.formed_us <= serve.served_us < wave.formed_us)
            assert wave.formed_us <= free_us + 20.0 + max(charges)


class TestSloPath:
    def test_expired_requests_are_shed_at_dispatch(self, make_door,
                                                   small_dataset):
        # SLO far below the wait budget: nothing can make its deadline.
        requests = load(small_dataset, count=20, slo_us=100.0)
        door = make_door(FrontDoorConfig(max_wait_us=5000.0, max_batch=64))
        report = door.run(requests)
        assert report.shed_deadline > 0
        for outcome in report.outcomes:
            if outcome.status is RequestStatus.SHED_DEADLINE:
                assert not outcome.deadline_met
                assert outcome.ef_used == 0

    def test_overload_degrades_and_accounts(self, make_door, small_dataset):
        requests = load(small_dataset, count=120, rate_qps=150_000.0,
                        ef_search=64)
        door = make_door(FrontDoorConfig(
            max_wait_us=500.0, max_batch=4, degraded_ef=12))
        report = door.run(requests)
        degraded = [o for o in report.outcomes
                    if o.status is RequestStatus.DEGRADED]
        assert degraded
        for outcome in degraded:
            assert outcome.ef_used == 12
        assert any(w.degraded for w in report.waves)


class TestFairness:
    def test_weighted_share_under_saturation(self, make_door,
                                             small_dataset):
        requests = load(small_dataset, count=160, rate_qps=200_000.0,
                        tenants=("heavy", "light"), slo_us=10_000_000.0)
        door = make_door(
            FrontDoorConfig(max_wait_us=1000.0, max_batch=8),
            tenants={"heavy": TenantPolicy(weight=3.0),
                     "light": TenantPolicy(weight=1.0)})
        report = door.run(requests)
        by_tenant = {t.tenant: t for t in report.tenants()}
        assert report.served == report.offered
        # Everyone is served eventually; fairness shows up as the heavy
        # tenant waiting less than the light one under saturation.
        assert (by_tenant["heavy"].p50_queue_delay_us
                < by_tenant["light"].p50_queue_delay_us)


class TestObservability:
    def test_in_wave_and_tenant_latency_percentiles(self, make_door,
                                                    small_dataset):
        door = make_door(FrontDoorConfig(max_wait_us=800.0, max_batch=8))
        report = door.run(load(small_dataset, count=40))
        in_wave = sorted(o.in_wave_us for o in report.outcomes)
        percentiles = report.in_wave_percentiles()
        assert percentiles["p50"] == in_wave[len(in_wave) // 2 - 1]
        assert percentiles["p99"] == percentiles["p999"] == in_wave[-1]
        assert 0.0 < percentiles["p50"] <= percentiles["p99"]
        # Queue + in-wave is the whole latency, request by request.
        for outcome in report.outcomes:
            assert outcome.latency_us == pytest.approx(
                outcome.queue_delay_us + outcome.in_wave_us)
        for tenant in report.tenants():
            latencies = sorted(o.latency_us for o in report.outcomes
                               if o.request.tenant == tenant.tenant)
            assert tenant.p99_latency_us == latencies[-1]
            assert (tenant.p50_queue_delay_us < tenant.p50_latency_us
                    <= tenant.p99_latency_us)

    def test_render_report_grows_a_front_door_section(
            self, built_deployment, make_door, small_dataset):
        door = make_door(FrontDoorConfig(max_wait_us=800.0, max_batch=8))
        report = door.run(load(small_dataset, count=20))
        text = render_report(
            DeploymentTelemetry.from_deployment(built_deployment),
            frontdoor=report)
        assert "=== front door ===" in text
        lines = text.splitlines()
        queue_line = next(i for i, line in enumerate(lines)
                          if line.startswith("queue delay"))
        # Budget or wave?  The two waits print one under the other.
        assert lines[queue_line + 1].startswith("in wave")
        assert f"p99 {report.in_wave_percentiles()['p99']:.1f}" in (
            lines[queue_line + 1])
        assert "l_p50us" in text and "l_p99us" in text
        for tenant in report.tenants():
            assert tenant.tenant in text
            assert f"{tenant.p99_latency_us:.1f}" in text

    def test_render_report_without_front_door_is_unchanged(
            self, built_deployment):
        text = render_report(
            DeploymentTelemetry.from_deployment(built_deployment))
        assert "front door" not in text


class TestConfig:
    #: Knobs that are constants where they are read now: refused outright.
    RETIRED = {"drr_quantum", "default_weight", "default_rate_qps",
               "default_burst", "degrade_backlog_waves"}

    @pytest.mark.parametrize("kwargs", [
        {"max_wait_us": -1.0},
        {"max_batch": 0},
        {"slo_us": 0.0},
        {"drr_quantum": 0},
        {"default_weight": 0.0},
        {"default_rate_qps": 0.0},
        {"default_burst": 0},
        {"degraded_ef": 0},
        {"degrade_backlog_waves": 0.0},
        # A NaN passes every range check; the door never returned with
        # one, and shed everything with an infinite wait.
        {"max_wait_us": float("nan")},
        {"max_wait_us": float("inf")},
        {"slo_us": float("nan")},
        {"slo_us": float("inf")},
    ])
    def test_validation(self, kwargs):
        (name,) = kwargs
        error = TypeError if name in self.RETIRED else ConfigError
        with pytest.raises(error, match=name):
            FrontDoorConfig(**kwargs)

    def test_replace(self):
        config = FrontDoorConfig()
        assert config.replace(max_batch=8).max_batch == 8
        assert config.max_batch == 64
