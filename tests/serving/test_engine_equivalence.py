"""Staged pipeline vs the monolithic reference loop, bit for bit.

The refactor's acceptance oracle: ``reference_loop.install`` makes a
client replay the pre-refactor monolithic wave loop.  For every executor
configuration, a staged client and a reference client over the same
layout must produce identical answers *and* identical simulated ledgers —
same RdmaStats field by field, same latency breakdown, same cache
counters.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.baselines import Scheme
from repro.core.client import DHnswClient
from repro.core.merge import TopKMerger
from repro.core.query_planner import BatchPlan, Wave
from tests.serving import reference_loop

# Row ids predate the single worker pool and are kept so the suite's ids
# stay comparable.  ``process`` rows run both clients on ``workers``
# search processes; ``thread`` rows (once the thread pool) hold the
# oracle inline, so a pooled staged client is compared with a serial
# replay: ``search_workers=4`` answers as ``search_workers=1`` does.
MATRIX = [
    ("thread", 1),
    ("thread", 4),
    ("process", 1),
    ("process", 4),
]
SCHEDULES = pytest.mark.parametrize("pipeline", [False, True],
                                    ids=["serial", "pipelined"])


def make_pair(deployment, scheme=Scheme.DHNSW, oracle_workers=None,
              **overrides):
    """A staged client and one running the reference loop, same config
    (but for the oracle's worker count, where given)."""
    config = deployment.config.replace(**overrides)
    oracle_config = (config if oracle_workers is None
                     else config.replace(search_workers=oracle_workers))
    staged, oracle = (
        DHnswClient(deployment.layout, deployment.meta, client_config,
                    scheme=scheme,
                    cost_model=deployment.effective_cost_model, name=name)
        for name, client_config in (("staged", config),
                                    ("oracle", oracle_config)))
    reference_loop.install(oracle)
    return staged, oracle


def assert_ledgers_identical(staged, oracle):
    """Everything a client accumulates: counters, caches and its clock."""
    assert (dataclasses.asdict(staged.node.stats)
            == dataclasses.asdict(oracle.node.stats))
    assert staged.cache.counters() == oracle.cache.counters()
    assert staged.node.clock.now_us == oracle.node.clock.now_us


def assert_batches_identical(staged, oracle):
    for one, other in zip(staged.results, oracle.results, strict=True):
        np.testing.assert_array_equal(one.ids, other.ids)
        np.testing.assert_array_equal(one.distances, other.distances)
    assert dataclasses.asdict(staged.rdma) == dataclasses.asdict(oracle.rdma)
    assert staged.breakdown == oracle.breakdown
    assert staged.sub_evals == oracle.sub_evals
    assert staged.clusters_fetched == oracle.clusters_fetched
    assert staged.cache_hits == oracle.cache_hits
    assert staged.cache_misses == oracle.cache_misses
    assert staged.cache_evictions == oracle.cache_evictions
    assert staged.waves == oracle.waves
    assert (staged.duplicate_requests_pruned
            == oracle.duplicate_requests_pruned)
    assert staged.pipeline_executed == oracle.pipeline_executed
    assert staged.overlap_saved_us == oracle.overlap_saved_us


def run_cold_then_warm(staged, oracle, queries, k=10):
    """A cold batch (all misses), then a warm one (cache hits plus the
    overflow-tail validation path) — both must match exactly."""
    try:
        for _ in range(2):
            staged_result = staged.search_batch(queries, k=k)
            oracle_result = oracle.search_batch(queries, k=k)
            assert_batches_identical(staged_result, oracle_result)
            assert_ledgers_identical(staged, oracle)
    finally:
        staged.close()
        oracle.close()
    return staged_result


@SCHEDULES
@pytest.mark.parametrize("executor,workers",
                         MATRIX, ids=[f"{e}{w}" for e, w in MATRIX])
def test_staged_matches_reference(built_deployment, small_dataset,
                                  pipeline, executor, workers):
    staged, oracle = make_pair(
        built_deployment, pipeline_waves=pipeline, search_workers=workers,
        oracle_workers=1 if executor == "thread" else None)
    result = run_cold_then_warm(staged, oracle, small_dataset.queries[:12])
    assert result.waves >= 2 and result.pipeline_executed == pipeline
    # Only the staged path populates per-stage traces.
    assert result.trace is not None
    assert result.trace.total_sim_us > 0.0


@SCHEDULES
def test_capacity_one_cache(built_deployment, small_dataset, pipeline):
    """The smallest cache: one cluster per wave, every wave evicts."""
    staged, oracle = make_pair(built_deployment, pipeline_waves=pipeline,
                               cache_fraction=1e-9)
    assert staged.cache.capacity_clusters == 1
    result = run_cold_then_warm(staged, oracle, small_dataset.queries[:12])
    assert result.cache_hits == 1 and result.cache_evictions > 0


@SCHEDULES
def test_hit_evicted_between_planning_and_execution(
        built_deployment, small_dataset, pipeline):
    """A hit wave whose cluster left the cache after planning refetches
    and re-admits it; under the look-ahead the next wave's READ is already
    on the wire while it does."""
    staged, oracle = make_pair(built_deployment, pipeline_waves=pipeline,
                               cache_fraction=1e-9)
    queries = small_dataset.queries[:2]
    plan = BatchPlan(
        waves=(Wave(fetch_cluster_ids=(), serviced=((0, 0), (1, 0))),
               Wave(fetch_cluster_ids=(1,), serviced=((0, 1),)),
               Wave(fetch_cluster_ids=(2,), serviced=((1, 2),))),
        cache_hit_cluster_ids=(0,), unique_clusters=3,
        duplicate_requests_pruned=0)
    try:
        executions = [
            client.engine.executor.execute_plan(
                plan, queries, TopKMerger(len(queries), 10), 10, 20)
            for client in (staged, oracle)]
        assert executions[0] == executions[1]
        assert executions[0].fetched == 3 and executions[0].hit_count == 0
        assert executions[0].pipeline_executed == pipeline
        assert_ledgers_identical(staged, oracle)
    finally:
        staged.close()
        oracle.close()


def test_single_wave_batch_never_looks_ahead(built_deployment,
                                             small_dataset):
    """``pipeline_waves`` with a plan of one wave is the serial schedule:
    deferred charges, nothing in flight."""
    staged, oracle = make_pair(built_deployment, pipeline_waves=True,
                               cache_fraction=1.0)
    result = run_cold_then_warm(staged, oracle, small_dataset.queries[:12])
    assert result.waves == 1 and not result.pipeline_executed
    assert result.overlap_saved_us == 0.0


def test_no_doorbell_pipelined(built_deployment, small_dataset):
    """One round trip per cluster, still hidden behind the previous
    wave's search."""
    staged, oracle = make_pair(built_deployment, Scheme.NO_DOORBELL,
                               pipeline_waves=True)
    result = run_cold_then_warm(staged, oracle, small_dataset.queries[:12])
    assert result.pipeline_executed and result.overlap_saved_us > 0.0


def test_reference_covers_naive_path(built_deployment, small_dataset):
    """The naive scheme is a plan of one pair per wave through the same
    loop; the oracle still runs the monolith's dedicated naive schedule."""
    staged, oracle = make_pair(built_deployment, Scheme.NAIVE)
    result = run_cold_then_warm(staged, oracle, small_dataset.queries[:6],
                                k=5)
    assert result.waves == 6 * built_deployment.config.nprobe
    assert result.cache_hits == 0


def test_process_pool_across_a_peers_rebuild(mutable_deployment,
                                             small_dataset):
    """A second client rebuilds one group between two batches.  Worker
    processes key their entries on the extent epoch, so only the rebuilt
    group's clusters are shipped again — and the answers and ledgers
    still match the monolith's, batch for batch."""
    staged, oracle = make_pair(mutable_deployment, search_workers=4)
    writer = DHnswClient(mutable_deployment.layout, mutable_deployment.meta,
                         mutable_deployment.config,
                         cost_model=mutable_deployment.effective_cost_model,
                         name="writer")
    queries = small_dataset.queries[:12]

    def shipped():
        pool = staged.engine.executor._search_pool
        return {(cid, state) for shard in pool._shipped
                for _, cid, state in shard}

    try:
        assert_batches_identical(staged.search_batch(queries, k=10),
                                 oracle.search_batch(queries, k=10))
        before = shipped()
        probe = queries[0]
        group = writer.metadata.clusters[writer.meta.classify(probe)].group_id
        for i in range(mutable_deployment.config.overflow_capacity_records
                       + 1):
            writer.insert(probe + i * 1e-4, 900_000 + i)
        assert writer.mutation.stats.rebuilds_led == 1
        assert_batches_identical(staged.search_batch(queries, k=10),
                                 oracle.search_batch(queries, k=10))
        assert_ledgers_identical(staged, oracle)
        # Shipped before and again since, under a new state key.
        again = ({cid for cid, _ in shipped() - before}
                 & {cid for cid, _ in before})
        assert again
        assert {staged.metadata.clusters[cid].group_id
                for cid in again} == {group}
    finally:
        writer.close()
        staged.close()
        oracle.close()


@SCHEDULES
def test_peer_inserts_between_batches(mutable_deployment, small_dataset,
                                      pipeline):
    """A second client lands more records in one group than the fetcher's
    slack covers, without filling it.  The next batch meets them both
    ways — cached members through the tails ring and one delta ring,
    refetched ones through a short read topped up before admission — and
    the oracle, which takes its descriptors and its deltas from the same
    fetcher, must post the same verbs and charges."""
    staged, oracle = make_pair(mutable_deployment, pipeline_waves=pipeline)
    writer = DHnswClient(mutable_deployment.layout, mutable_deployment.meta,
                         mutable_deployment.config,
                         cost_model=mutable_deployment.effective_cost_model,
                         name="writer")
    queries = small_dataset.queries[:12]
    capacity = mutable_deployment.config.overflow_capacity_records
    try:
        assert_batches_identical(staged.search_batch(queries, k=10),
                                 oracle.search_batch(queries, k=10))
        for i in range(capacity - 2):
            writer.insert(queries[0] + i * 1e-4, 910_000 + i)
        assert writer.mutation.stats.rebuilds_led == 0
        before = staged.node.stats.snapshot()
        result = staged.search_batch(queries, k=10)
        assert_batches_identical(result, oracle.search_batch(queries, k=10))
        assert_ledgers_identical(staged, oracle)
        assert result.results[0].ids[0] == 910_000
        # The version peek, one ring per wave (the hit wave's is its tails
        # ring) — and the delta rings this test is about.
        assert result.cache_hits > 0
        rings = staged.node.stats.delta(before).round_trips
        assert rings - 1 - result.waves >= 1
    finally:
        writer.close()
        staged.close()
        oracle.close()
