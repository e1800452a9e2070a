"""Stages built from a :class:`ClientContext` alone, and what the context
owns: the transport cell and the one request-id counter."""

from __future__ import annotations

import collections
import copy
import math

import numpy as np

from repro.cluster import Deployment
from repro.core import ClusterCache, DHnswClient, Scheme, policy_for
from repro.core.context import ClientContext
from repro.mutation import MutationEngine, ShadowRebuild
from repro.rdma import ComputeNode, CostModel
from repro.serving import ServingEngine


def bare_context(deployment, config) -> ClientContext:
    """A context over the deployment's layout and meta-HNSW, with the
    handles a client would give it, and no client."""
    layout, cost = deployment.layout, deployment.cost_model
    node = ComputeNode(layout.memory_node, cost, name="compute0")
    cache = ClusterCache(
        config.cache_capacity_clusters(layout.metadata.num_clusters),
        capacity_bytes=config.hot_tier_budget_bytes)
    return ClientContext(layout, copy.deepcopy(deployment.meta), config,
                         policy_for(Scheme.DHNSW), cost, node, cache,
                         node.qp)


def charged(node, operation):
    """``operation()``'s result, RDMA delta and simulated µs."""
    before, started = node.stats.snapshot(), node.clock.now_us
    result = operation()
    return result, node.stats.delta(before), node.clock.now_us - started


def test_stages_from_a_context_match_a_client(small_dataset, small_config):
    twin = Deployment(small_dataset.vectors, small_config,
                      cost_model=CostModel())
    bare = Deployment(small_dataset.vectors, small_config,
                      cost_model=CostModel())
    client = DHnswClient(twin.layout, twin.meta, small_config,
                         cost_model=twin.cost_model)
    ctx = bare_context(bare, small_config)
    serving, mutation = ServingEngine(ctx), MutationEngine(ctx)
    queries = small_dataset.queries[:8]

    def same_batch():
        ours, _, our_us = charged(
            ctx.node, lambda: serving.search_batch(queries, 10))
        theirs, _, their_us = charged(
            client.node, lambda: client.search_batch(queries, 10))
        assert ours.ids_list() == theirs.ids_list()
        for mine, reference in zip(ours.results, theirs.results):
            assert np.array_equal(mine.distances, reference.distances)
        assert ours.breakdown == theirs.breakdown
        assert ours.rdma == theirs.rdma
        # The client's clock also carries its control-daemon handshake,
        # so the same charges may round apart in the last place.
        assert math.isclose(our_us, their_us, rel_tol=1e-12)

    def same_op(ours, theirs):
        result, delta, our_us = charged(ctx.node, ours)
        reference, reference_delta, their_us = charged(client.node, theirs)
        assert (result, delta) == (reference, reference_delta)
        assert math.isclose(our_us, their_us, rel_tol=1e-12)
        return result

    same_batch()
    vector = small_dataset.queries[0]
    report = same_op(lambda: mutation.insert(vector, 90_000),
                     lambda: client.insert(vector, 90_000))
    gid = ctx.metadata.clusters[report.cluster_id].group_id
    assert same_op(ShadowRebuild(ctx, gid).run,
                   ShadowRebuild(client.ctx, gid).run)
    assert ctx.metadata == client.metadata
    same_batch()


class CountingTransport:
    """Passes every verb through to ``inner``, counting it by name."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls: collections.Counter[str] = collections.Counter()

    def __getattr__(self, name):
        verb = getattr(self.inner, name)
        if not callable(verb):
            return verb

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return verb(*args, **kwargs)

        return counted


def test_transport_decorated_after_construction_reaches_every_stage(
        mutable_deployment, small_config, small_dataset):
    client = DHnswClient(mutable_deployment.layout, mutable_deployment.meta,
                         small_config.replace(pipeline_waves=True),
                         cost_model=mutable_deployment.cost_model)
    counting = client.transport = CountingTransport(client.transport)
    assert client.ctx.transport is counting
    before = client.node.stats.snapshot()
    client.search_batch(small_dataset.queries[:8], 10)
    report = client.insert(small_dataset.queries[0], 90_000)
    gid = client.metadata.clusters[report.cluster_id].group_id
    assert client.mutation.rebuild_group(gid)
    delta = client.node.stats.delta(before)
    # Planner / fetcher / executor (async READs), the context's metadata
    # peeks, the writer's FAA + WRITE, and the rebuild's CAS.
    assert {"read", "read_batch_async", "poll", "faa", "write",
            "cas"} <= set(counting.calls)
    assert counting.calls["cas"] == delta.atomic_ops - counting.calls["faa"]


def test_reads_and_writes_share_one_request_counter(mutable_deployment,
                                                    small_config,
                                                    small_dataset):
    client = DHnswClient(mutable_deployment.layout, mutable_deployment.meta,
                         small_config,
                         cost_model=mutable_deployment.cost_model)
    ids = []
    for i, query in enumerate(small_dataset.queries[:4]):
        ids.append(client.search_batch(query[None, :], 10).trace.request_id)
        client.insert(query, 80_000 + i)
        ids.append(client.mutation.last_trace.request_id)
    # Unique and strictly increasing, reads and writes alike.
    assert ids == sorted(set(ids))
