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
from hypothesis import given, settings
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
    # inside its wave.
    assert ([o.complete_us for o in first.outcomes]
            == [o.complete_us for o in second.outcomes])
    wave_end = {w.wave_id: w.formed_us + w.service_us for w in first.waves}
    for outcome in first.outcomes:
        assert (outcome.dispatch_us < outcome.complete_us
                <= wave_end[outcome.wave_id] + 1e-9)

    # 2. Coalescing never changes a single answer bit.
    assert first.served == len(requests)
    oracle = built_deployment.make_client(scheme, name="oracle")
    queries = np.stack([r.query for r in requests])
    direct = oracle.search_batch(queries, 5, ef_search=24)
    for outcome, result in zip(first.outcomes, direct.results):
        assert np.array_equal(outcome.ids, result.ids)
        assert np.array_equal(outcome.distances, result.distances)
