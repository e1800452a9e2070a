"""The ready-list loop over random plans, against its oracle and the
serial schedule.

Hypothesis draws the batch (rows and their probes), which clusters are
resident before it (the hits), the cache capacity (1-5 clusters per
wave), the fabric's speed relative to search (so READs land before,
between or long after the searches they hide behind) and how much
routing is left to bill once the first READ is posted.  Every example
runs the same plan three times — the staged loop, the test-side
transcription in ``reference_loop`` and the serial schedule — and checks:

* stamps equal the transcription's, to the bit;
* answers and ``sub_evals`` equal the serial schedule's;
* the CPU never waits on a READ while a pinned hit is still unsearched
  (nor while anything else is searchable);
* no pin outlives the batch, and DRAM holds the cache and nothing else.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import DHnswClient
from repro.core.merge import TopKMerger
from repro.core.query_planner import plan_batch
from repro.rdma import CostModel
from tests.serving import reference_loop

K, EF = 5, 16

#: (base RTT µs, link Gb/s): READs far faster than search, comparable,
#: and far slower.
FABRICS = st.sampled_from([(0.2, 1600.0), (2.0, 100.0), (40.0, 5.0)])


def make_client(deployment, capacity, cost_model, pipeline, name):
    num_clusters = deployment.layout.metadata.num_clusters
    config = deployment.config.replace(
        pipeline_waves=pipeline, cache_fraction=capacity / num_clusters)
    client = DHnswClient(deployment.layout, deployment.meta, config,
                         cost_model=cost_model, name=name)
    assert client.cache.capacity_clusters == capacity
    return client


def warm(client, queries, hits):
    """Make exactly ``hits`` resident (the cache has room for them)."""
    if hits:
        plan = plan_batch([[cid] for cid in hits], client.cache,
                          client.cache.capacity_clusters)
        client.engine.executor.execute_plan(
            plan, queries[:len(hits)], TopKMerger(len(hits), K), K, EF)
    assert {cid for cid in hits if cid in client.cache} == set(hits)


def spy_on_waits(client, hits):
    """Record every poll that made the CPU wait, with what was
    searchable then."""
    waits: list[tuple[float, set[int], bool]] = []
    loops = []
    ready_list = client.engine.executor.ready_list
    poll = client.transport.poll

    def capturing(*args, **kwargs):
        loops.append(ready_list(*args, **kwargs))
        return loops[-1]

    def polling(token):
        waited = token.completes_at_us - client.node.clock.now_us
        if waited > 0 and loops:
            loop = loops[-1]
            pinned_unsearched = {cid for cid in hits if cid in loop.ready}
            waits.append((waited, pinned_unsearched, bool(loop.ready)))
        return poll(token)

    client.engine.executor.ready_list = capturing
    client.transport.poll = polling
    return waits


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_ready_list_loop_against_oracle_and_serial(built_deployment,
                                                   small_dataset, data):
    num_clusters = built_deployment.layout.metadata.num_clusters
    capacity = data.draw(st.integers(min_value=1, max_value=5), "capacity")
    required = data.draw(st.lists(
        st.lists(st.integers(0, num_clusters - 1), min_size=1, max_size=4,
                 unique=True), min_size=1, max_size=8), "required")
    probed = sorted({cid for row in required for cid in row})
    hits = sorted(data.draw(st.sets(st.sampled_from(probed),
                                    max_size=capacity), "hits"))
    rtt, gbps = data.draw(FABRICS, "fabric")
    routing_evals = data.draw(st.integers(0, 40 * len(required)),
                              "routing evaluations after the first READ")
    cost_model = CostModel(base_rtt_us=rtt, bandwidth_gbps=gbps)
    queries = small_dataset.queries[:len(required)]

    staged, oracle, serial = (
        make_client(built_deployment, capacity, cost_model, pipeline, name)
        for name, pipeline in (("staged", True), ("oracle", True),
                               ("serial", False)))
    reference_loop.install(oracle)
    try:
        runs = {}
        for name, client in (("staged", staged), ("oracle", oracle),
                             ("serial", serial)):
            warm(client, small_dataset.queries, hits)
            fixed = client.dram_used_bytes - client.cache.cached_bytes
            waits = spy_on_waits(client, hits) if name == "staged" else []
            plan = plan_batch(required, client.cache, capacity)
            merger = TopKMerger(len(required), K)
            executor = client.engine.executor
            # As the engine runs it: the loop starts once the rows that
            # fix the first READ are routed, the rest are routed (billed)
            # with that READ in flight, then the loop runs.
            loop = executor.ready_list(plan, queries, merger, K, EF)
            if loop is not None:
                loop.start(plan.first_wave_rows)
                client.node.charge_compute(routing_evals, client.meta.dim)
            execution = executor.execute_plan(plan, queries, merger, K, EF,
                                              loop=loop)
            runs[name] = (plan, execution, merger, waits)
            # No pin outlives the batch; DRAM holds the cache, nothing
            # streamed is still held.
            assert all(client.cache.peek(cid).pins == 0
                       for cid in range(num_clusters)
                       if client.cache.peek(cid) is not None)
            assert (client.dram_used_bytes
                    == fixed + client.cache.cached_bytes)
        plan, execution, merger, waits = runs["staged"]
        _, oracle_execution, _, _ = runs["oracle"]
        _, serial_execution, serial_merger, _ = runs["serial"]
        assert execution.pipeline_executed == bool(plan.waves)
        if plan.waves:
            np.testing.assert_array_equal(execution.complete_us,
                                          oracle_execution.complete_us)
        assert execution.sub_evals == serial_execution.sub_evals
        assert execution.hit_count == serial_execution.hit_count == len(
            set(hits) & {cid for row in required for cid in row})
        for row in range(len(required)):
            ids, dists = merger.top(row)
            serial_ids, serial_dists = serial_merger.top(row)
            np.testing.assert_array_equal(ids, serial_ids)
            np.testing.assert_array_equal(dists, serial_dists)
        for waited, pinned_unsearched, searchable in waits:
            assert not pinned_unsearched, (waited, pinned_unsearched)
            assert not searchable
    finally:
        for client in (staged, oracle, serial):
            client.close()
