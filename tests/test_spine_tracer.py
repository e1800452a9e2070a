"""The measurement spine's bind list against the program it wraps.

``benchmarks/spine/tracer.py`` records per-layer spans by replacing ~25
instance, class and module attributes of ``src/`` from the outside.  A
rename under ``src/`` breaks ``--trace 1`` (and every per-layer metric of
``BENCHMARK.json``) without failing anything else, so this installs the
tracer on a tiny deployment exactly as the workloads do, drives each seam
once, and checks the spans the layer metrics are computed from.
"""

from __future__ import annotations

import numpy as np

import repro.serving.executor as executor_module
from benchmarks.spine.tracer import Tracer
from repro.cluster import Deployment
from repro.core import DHnswClient
from repro.core.config import FrontDoorConfig
from repro.frontdoor import FrontDoor, make_requests, poisson_arrivals

EXPECTED_SPANS = {
    # install_build
    "build.meta_hnsw", "build.assign_partitions", "build.sub_hnsws",
    "build.serialize_cluster", "build.load_write",
    # install_shared
    "executor.search_cluster", "merger.add", "rebuild.acquire",
    "rebuild.snapshot", "rebuild.build", "rebuild.write", "rebuild.cutover",
    # install_client
    "engine.search_batch", "engine.attempt", "planner.route",
    "planner.plan", "decoder.decode_extent", "executor.run_wave_compute",
    "merger.finalize", "writer.insert", "node.charge_compute",
    "node.charge_time", "transport.read", "transport.read_batch",
    "transport.read_batch_async", "transport.poll", "transport.write",
    "transport.faa", "transport.cas",
    # install_door
    "frontdoor.run",
}


def test_every_bound_name_exists_and_records_spans(small_dataset,
                                                   small_config):
    search_cluster_entry = executor_module.search_cluster_entry
    tracer = Tracer()
    tracer.install_shared()
    tracer.install_build()
    client = None
    try:
        deployment = Deployment(small_dataset.vectors, small_config)
        # Pipelined, so the async verbs are on the path too.
        client = DHnswClient(deployment.layout, deployment.meta,
                             small_config.replace(pipeline_waves=True),
                             cost_model=deployment.effective_cost_model)
        tracer.install_client(client)
        door = FrontDoor(client, FrontDoorConfig(max_wait_us=1500.0,
                                                 max_batch=8))
        tracer.install_door(door)

        first_span = len(tracer.spans)
        batch = client.search_batch(small_dataset.queries[:8], 10)
        batch_spans = tracer.spans[first_span:]
        client.insert(small_dataset.queries[0], 70_000)
        # A blocking doorbell READ: the verb of a short fetch's delta
        # ring (the loop posts its READs asynchronously).
        descriptors, _ = client.engine.fetcher.extent_descriptors([0])
        client.transport.read_batch(descriptors, doorbell=True)
        rng = np.random.default_rng(3)
        door.run(make_requests(poisson_arrivals(3000.0, 6, rng),
                               small_dataset.queries, k=10, slo_us=50_000.0,
                               rng=rng, tenants=("a",)))
        # One shadow rebuild, step by step: the tracer names each step's
        # span by ``ShadowRebuild.state`` and reads its clock through
        # ``ShadowRebuild.host``; acquiring the lock is the CAS.
        first_rebuild_span = len(tracer.spans)
        assert client.mutation.rebuild_group(0)
        rebuild_spans = tracer.spans[first_rebuild_span:]
    finally:
        tracer.restore()
        if client is not None:
            client.close()

    seen = {span.name for span in tracer.spans}
    assert EXPECTED_SPANS <= seen, sorted(EXPECTED_SPANS - seen)

    # What benchmarks/spine/layers.py derives from the spans of a batch.
    def named(name):
        return [span for span in batch_spans if span.name == name]

    assert len(named("decoder.decode_extent")) == batch.clusters_fetched
    # Every planned cluster is searched once, in a ``run_wave_compute``
    # call of its own, as its charge comes.
    searches = len(named("executor.search_cluster"))
    assert searches == batch.clusters_fetched + batch.cache_hits
    assert len(named("executor.run_wave_compute")) == searches
    assert len(named("engine.attempt")) == len(named("engine.search_batch"))
    # ``charge_compute(evals, dim)`` is read positionally for the counts.
    sub_charges = [span for span in named("node.charge_compute")
                   if span.billed_group() == "compute"]
    assert sum(span.count for span in sub_charges) == batch.sub_evals
    # ``search_cluster_entry`` is looked up as an executor-module global.
    assert named("executor.search_cluster")
    assert all(span.parent.name == "executor.run_wave_compute"
               for span in named("executor.search_cluster"))

    steps = [span for span in rebuild_spans
             if span.name.startswith("rebuild.")]
    assert [span.name for span in steps] == [
        "rebuild.acquire", "rebuild.snapshot", "rebuild.build",
        "rebuild.write", "rebuild.cutover"]
    assert all(span.sim_end >= span.sim_start for span in steps)
    assert sum(span.sim_us for span in steps) > 0

    # restore() leaves nothing behind.
    assert executor_module.search_cluster_entry is search_cluster_entry
    assert "search_batch" not in vars(client)
    assert "run_wave_compute" not in vars(client.engine.executor)
    assert "charge_compute" not in vars(client.node)
