"""The ready-list loop over random plans, against its transcriptions.

Hypothesis draws the scheme (deduplicated or naive), whether the
look-ahead is on, the batch (rows and their probes), which clusters are
resident before it (the hits — every probed one, for an all-hit plan),
the cache capacity (1-5 clusters per wave), the fabric's speed relative
to search (so READs land before, between or long after the searches
they hide behind) and each row's routing cost, billed around the first
READ as the engine bills it.  Every example runs the same plan through
the staged loop and through the test-side transcription in
``reference_loop`` that the scheme and config call for, and checks:

* answers, stamps and ``sub_evals`` equal the transcription's, to the
  bit;
* every planned ``(row, cluster)`` pair is searched exactly once;
* with look-ahead off, no search starts while a READ is outstanding and
  no wire time hides (``overlapped_time_us == 0``);
* with look-ahead on, the CPU never waits on a READ while anything is
  searchable (a pinned hit included);
* no pin outlives the batch, and DRAM holds the cache and nothing else.
"""

from __future__ import annotations

import collections

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import Scheme
from repro.core.client import DHnswClient
from repro.core.merge import TopKMerger
from repro.rdma import CostModel
from tests.serving import reference_loop
from tests.serving.helpers import make_plan, run_plan

K, EF = 5, 16

#: (base RTT µs, link Gb/s): READs far faster than search, comparable,
#: and far slower.
FABRICS = st.sampled_from([(0.2, 1600.0), (2.0, 100.0), (40.0, 5.0)])


def make_client(deployment, scheme, capacity, cost_model, pipeline, name):
    num_clusters = deployment.layout.metadata.num_clusters
    config = deployment.config.replace(
        pipeline_waves=pipeline, cache_fraction=capacity / num_clusters)
    client = DHnswClient(deployment.layout, deployment.meta, config,
                         scheme=scheme, cost_model=cost_model, name=name)
    assert client.cache.capacity_clusters == capacity
    return client


def warm(client, queries, hits):
    """Make exactly ``hits`` resident (the cache has room for them)."""
    if hits:
        run_plan(client, make_plan(client, [[cid] for cid in hits]),
                 queries[:len(hits)], TopKMerger(len(hits), K), K, EF)
    assert {cid for cid in hits if cid in client.cache} == set(hits)


def spy(client):
    """Record every search task, whether a READ was outstanding when it
    was handed over, and every poll that made the CPU wait, with what
    was searchable then."""
    searches: list[tuple[int, int]] = []
    searched_in_flight: list[int] = []
    waits: list[tuple[float, bool, bool]] = []
    outstanding: set[int] = set()
    loops = []
    executor, transport = client.engine.executor, client.transport
    ready_list = executor.ready_list
    run_wave_compute = executor.run_wave_compute
    post, poll = transport.read_batch_async, transport.poll

    def capturing(*args, **kwargs):
        loops.append(ready_list(*args, **kwargs))
        return loops[-1]

    def searching(cid, entry, rows, *args, **kwargs):
        searches.extend((row, cid) for row in rows)
        searched_in_flight.append(len(outstanding))
        return run_wave_compute(cid, entry, rows, *args, **kwargs)

    def posting(*args, **kwargs):
        token = post(*args, **kwargs)
        outstanding.add(id(token))
        return token

    def polling(token):
        outstanding.discard(id(token))
        waited = token.completes_at_us - client.node.clock.now_us
        if waited > 0 and loops:
            loop = loops[-1]
            pinned_unsearched = any(pos in loop.ready for pos in loop.hits)
            waits.append((waited, pinned_unsearched, bool(loop.ready)))
        return poll(token)

    executor.ready_list = capturing
    executor.run_wave_compute = searching
    transport.read_batch_async = posting
    transport.poll = polling
    return searches, searched_in_flight, waits


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_ready_list_loop_against_its_transcription(built_deployment,
                                                   small_dataset, data):
    num_clusters = built_deployment.layout.metadata.num_clusters
    scheme = data.draw(st.sampled_from([Scheme.DHNSW, Scheme.NAIVE]),
                       "scheme")
    pipeline = data.draw(st.booleans(), "pipeline_waves")
    lookahead = pipeline and scheme is Scheme.DHNSW
    capacity = data.draw(st.integers(min_value=1, max_value=5), "capacity")
    all_hits = scheme is Scheme.DHNSW and data.draw(st.booleans(),
                                                    "all hits")
    universe = (data.draw(st.lists(st.integers(0, num_clusters - 1),
                                   min_size=1, max_size=capacity,
                                   unique=True), "resident")
                if all_hits else list(range(num_clusters)))
    required = data.draw(st.lists(
        st.lists(st.sampled_from(universe), min_size=1,
                 max_size=min(4, len(universe)), unique=True),
        min_size=1, max_size=8), "required")
    probed = sorted({cid for row in required for cid in row})
    if scheme is Scheme.NAIVE:
        hits = []
    elif all_hits:
        hits = probed
    else:
        hits = sorted(data.draw(st.sets(st.sampled_from(probed),
                                        max_size=capacity), "hits"))
    rtt, gbps = data.draw(FABRICS, "fabric")
    routing = data.draw(st.lists(st.integers(0, 40), min_size=len(required),
                                 max_size=len(required)),
                        "routing evaluations per row")
    cost_model = CostModel(base_rtt_us=rtt, bandwidth_gbps=gbps)
    queries = small_dataset.queries[:len(required)]

    staged, oracle = (
        make_client(built_deployment, scheme, capacity, cost_model,
                    pipeline, name) for name in ("staged", "oracle"))
    reference_loop.install(oracle)
    try:
        runs = {}
        for name, client in (("staged", staged), ("oracle", oracle)):
            warm(client, small_dataset.queries, hits)
            fixed = client.dram_used_bytes - client.cache.cached_bytes
            if name == "staged":
                searches, in_flight, waits = spy(client)
            # The planner makes plan_batch's plan at this capacity (no
            # byte cap), or plan_naive's.
            plan = make_plan(client, required)
            merger = TopKMerger(len(required), K)
            before = client.node.stats.snapshot()
            # As the engine runs it: the loop starts once the rows that
            # fix the first READ are routed (every row, without
            # look-ahead), the rest are billed with that READ in flight.
            loop = client.engine.executor.ready_list(plan, queries, merger,
                                                     K, EF)
            rows = loop.first_rows
            client.node.charge_compute(sum(routing[:rows]), client.meta.dim)
            loop.start(rows)
            client.node.charge_compute(sum(routing[rows:]), client.meta.dim)
            execution = loop.run()
            runs[name] = (plan, execution, merger)
            # No pin outlives the batch; DRAM holds the cache, nothing
            # streamed is still held.
            assert all(client.cache.peek(cid).pins == 0
                       for cid in range(num_clusters)
                       if client.cache.peek(cid) is not None)
            assert (client.dram_used_bytes
                    == fixed + client.cache.cached_bytes)
            hidden = client.node.stats.delta(before).overlapped_time_us
            if not lookahead:
                assert hidden == 0.0
        plan, execution, merger = runs["staged"]
        _, oracle_execution, oracle_merger = runs["oracle"]
        np.testing.assert_array_equal(execution.complete_us,
                                      oracle_execution.complete_us)
        assert execution.sub_evals == oracle_execution.sub_evals
        assert execution.sub_hnsw_us == oracle_execution.sub_hnsw_us
        assert execution.hit_count == oracle_execution.hit_count == len(
            set(hits) & set(probed))
        for row in range(len(required)):
            ids, dists = merger.top(row)
            oracle_ids, oracle_dists = oracle_merger.top(row)
            np.testing.assert_array_equal(ids, oracle_ids)
            np.testing.assert_array_equal(dists, oracle_dists)
        assert collections.Counter(searches) == collections.Counter(
            (row, cid) for row, cids in enumerate(required) for cid in cids)
        if all_hits:
            assert plan.waves == () and execution.fetched == 0
        if not lookahead:
            assert not any(in_flight)
        for waited, pinned_unsearched, searchable in waits:
            if lookahead:
                assert not pinned_unsearched, (waited, pinned_unsearched)
                assert not searchable
    finally:
        for client in (staged, oracle):
            client.close()
