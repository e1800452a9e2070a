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

from repro.core.client import DHnswClient
from tests.serving import reference_loop

MATRIX = [
    ("thread", 1),
    ("thread", 4),
    ("process", 1),
    ("process", 4),
]


def make_client(deployment, name, *, pipeline, executor, workers):
    config = deployment.config.replace(
        pipeline_waves=pipeline, search_executor=executor,
        search_workers=workers)
    return DHnswClient(deployment.layout, deployment.meta, config,
                       cost_model=deployment.effective_cost_model,
                       name=name)


def assert_batches_identical(staged, oracle):
    for one, other in zip(staged.results, oracle.results, strict=True):
        np.testing.assert_array_equal(one.ids, other.ids)
        np.testing.assert_array_equal(one.distances, other.distances)
    assert dataclasses.asdict(staged.rdma) == dataclasses.asdict(oracle.rdma)
    assert staged.breakdown.meta_hnsw_us == oracle.breakdown.meta_hnsw_us
    assert staged.breakdown.sub_hnsw_us == oracle.breakdown.sub_hnsw_us
    assert staged.breakdown.network_us == oracle.breakdown.network_us
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
    assert staged.overlap_oracle_us == oracle.overlap_oracle_us


@pytest.mark.parametrize("pipeline", [False, True],
                         ids=["serial", "pipelined"])
@pytest.mark.parametrize("executor,workers",
                         MATRIX, ids=[f"{e}{w}" for e, w in MATRIX])
def test_staged_matches_reference(built_deployment, small_dataset,
                                  pipeline, executor, workers):
    queries = small_dataset.queries[:12]
    staged = make_client(built_deployment, "staged", pipeline=pipeline,
                         executor=executor, workers=workers)
    oracle = make_client(built_deployment, "oracle", pipeline=pipeline,
                         executor=executor, workers=workers)
    reference_loop.install(oracle)
    try:
        # Cold batch (all misses), then a warm batch (cache hits plus the
        # overflow-tail validation path) — both must match exactly.
        for _ in range(2):
            staged_result = staged.search_batch(queries, k=10)
            oracle_result = oracle.search_batch(queries, k=10)
            assert_batches_identical(staged_result, oracle_result)
        # Only the staged path populates per-stage traces.
        assert staged_result.trace is not None
        assert staged_result.trace.total_sim_us > 0.0
    finally:
        staged.close()
        oracle.close()


def test_reference_covers_naive_path(built_deployment, small_dataset):
    """With batch dedup off (naive scheme), the oracle path still matches."""
    from repro.core.baselines import Scheme

    queries = small_dataset.queries[:6]
    staged = built_deployment.make_client(Scheme.NAIVE, "naive-staged")
    oracle = built_deployment.make_client(Scheme.NAIVE, "naive-oracle")
    reference_loop.install(oracle)
    try:
        assert_batches_identical(staged.search_batch(queries, k=5),
                                 oracle.search_batch(queries, k=5))
    finally:
        staged.close()
        oracle.close()
