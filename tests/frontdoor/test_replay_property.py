"""Property test: any arrival interleaving replays and answers honestly.

The determinism contract, stated adversarially: for *any* arrival
sequence (gaps, tenant assignment, seed — hypothesis picks them), running
the same requests through two fresh front doors yields the identical
schedule, and the answers are bit-identical to one direct
``search_batch`` over the same queries.  This is satellite #3 of the
front-door issue and the property the benchmark gates at scale.
"""

from __future__ import annotations

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.config import FrontDoorConfig
from repro.frontdoor import FrontDoor, make_requests


@st.composite
def arrival_plans(draw):
    """(gaps_us, tenant count, seed, max_wait_us, max_batch)."""
    count = draw(st.integers(min_value=1, max_value=24))
    gaps = draw(st.lists(
        st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
        min_size=count, max_size=count))
    num_tenants = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    max_wait_us = draw(st.sampled_from([0.0, 500.0, 2000.0]))
    max_batch = draw(st.sampled_from([1, 4, 16]))
    return gaps, num_tenants, seed, max_wait_us, max_batch


@settings(max_examples=12, deadline=None)
@given(plan=arrival_plans())
def test_any_interleaving_replays_and_matches_direct_search(
        built_deployment, small_dataset, plan):
    gaps, num_tenants, seed, max_wait_us, max_batch = plan
    arrivals = np.cumsum(np.asarray(gaps, dtype=np.float64))
    rng = np.random.default_rng(seed)
    requests = make_requests(
        arrivals, small_dataset.queries, k=5, slo_us=10_000_000.0,
        rng=rng, tenants=tuple(f"t{i}" for i in range(num_tenants)),
        ef_search=24)
    config = FrontDoorConfig(max_wait_us=max_wait_us, max_batch=max_batch)

    scheme = built_deployment.client().scheme

    def run():
        client = built_deployment.make_client(scheme, name="prop")
        return FrontDoor(client, config).run(requests)

    first = run()
    second = run()

    # 1. Same arrivals + same seed => the identical schedule.
    assert first.schedule_signature() == second.schedule_signature()
    assert first.latency_histogram() == second.latency_histogram()
    # ... down to each request's own completion instant, which lies
    # inside its wave (or its immediate serve).
    assert ([o.complete_us for o in first.outcomes]
            == [o.complete_us for o in second.outcomes])
    wave_end = {w.wave_id: w.formed_us + w.service_us for w in first.waves}
    served_end = {s.request_id: s.served_us + s.service_us
                  for s in first.immediate}
    for outcome in first.outcomes:
        end = (wave_end[outcome.wave_id] if outcome.wave_id >= 0
               else served_end[outcome.request.request_id])
        assert outcome.dispatch_us < outcome.complete_us <= end + 1e-9

    # 2. Coalescing never changes a single answer bit.
    assert first.served == len(requests)
    oracle = built_deployment.make_client(scheme, name="oracle")
    queries = np.stack([r.query for r in requests])
    direct = oracle.search_batch(queries, 5, ef_search=24)
    for outcome, result in zip(first.outcomes, direct.results):
        assert np.array_equal(outcome.ids, result.ids)
        assert np.array_equal(outcome.distances, result.distances)


@settings(max_examples=12, deadline=None)
@given(plan=arrival_plans(), warm=st.integers(min_value=1, max_value=4))
def test_routing_at_admission_on_a_warm_cache(roomy_deployment,
                                              small_dataset, plan, warm):
    """Requests draw from ``warm + 2`` queries, the cache warmed on the
    first ``warm``: requests whose clusters are all resident are served
    at once, outside any wave, the others in waves.  Whatever the
    interleaving: every request is routed exactly once, at or after its
    arrival, with the evaluation count ``route_batch`` gives its row,
    and never while the engine serves a wave or another request; answers
    stay bit-identical to a direct ``search_batch``, and the schedule
    replays."""
    gaps, num_tenants, seed, max_wait_us, max_batch = plan
    arrivals = np.cumsum(np.asarray(gaps, dtype=np.float64))
    rng = np.random.default_rng(seed)
    pool = small_dataset.queries[:warm]
    requests = make_requests(
        arrivals, small_dataset.queries[:warm + 2], k=5,
        slo_us=10_000_000.0, rng=rng,
        tenants=tuple(f"t{i}" for i in range(num_tenants)), ef_search=24)
    config = FrontDoorConfig(max_wait_us=max_wait_us, max_batch=max_batch)
    scheme = roomy_deployment.client().scheme

    def run():
        client = roomy_deployment.make_client(scheme, name="warm")
        client.search_batch(pool, 5, ef_search=24)
        client.search_batch(pool, 5, ef_search=24)
        planner, clock = client.engine.planner, client.node.clock
        route, routed = planner.route, []

        def spy(queries, breakdown, *args, **kwargs):
            start = clock.now_us
            clusters = route(queries, breakdown, *args, **kwargs)
            routed.append((queries.copy(), clusters,
                           kwargs["walk"].evaluations, start,
                           clock.now_us))
            return clusters

        planner.route = spy
        return FrontDoor(client, config).run(requests), routed

    (first, routed), (second, _) = run(), run()
    event(f"immediate serves: {bool(first.immediate)}, "
          f"waves: {bool(first.waves)}")
    assert first.schedule_signature() == second.schedule_signature()
    assert ([o.complete_us for o in first.outcomes]
            == [o.complete_us for o in second.outcomes])
    assert first.served == len(requests)

    oracle = roomy_deployment.make_client(scheme, name="oracle")
    queries = np.stack([r.query for r in requests])
    direct = oracle.search_batch(queries, 5, ef_search=24)
    for outcome, result in zip(first.outcomes, direct.results):
        assert np.array_equal(outcome.ids, result.ids)
        assert np.array_equal(outcome.distances, result.distances)

    # Routed once each, in admission (= arrival) order, as route_batch
    # routes the row; no engine call routed anything again.
    evaluations: list[int] = []
    clusters = oracle.meta.route_batch(queries, oracle.config.nprobe,
                                       oracle.config.ef_meta, evaluations)
    assert len(routed) == len(requests)
    busy = ([(w.formed_us, w.formed_us + w.service_us)
             for w in first.waves]
            + [(s.served_us, s.served_us + s.service_us)
               for s in first.immediate])
    for request, row_clusters, row_evals, (
            query, routes, evals, start, end) in zip(
                requests, clusters, evaluations, routed):
        assert np.array_equal(query, request.query[None, :])
        assert routes == [row_clusters] and list(evals) == [row_evals]
        assert start >= request.arrival_us
        assert end > start
        for begin, finish in busy:
            assert end <= begin or start >= finish
    # Every answered request was served in a wave or at once, not both.
    in_waves = {rid for w in first.waves for rid in w.request_ids}
    at_once = {s.request_id for s in first.immediate}
    assert not in_waves & at_once
    assert in_waves | at_once == {r.request_id for r in requests}
    for outcome in first.outcomes:
        assert (outcome.wave_id == -1) == (
            outcome.request.request_id in at_once)
