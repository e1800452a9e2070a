"""Cross-feature integration: the extensions must compose.

Each extension is tested on its own elsewhere; these scenarios combine
them the way a real operator would: tune an SLO on a sharded deployment,
replay a mixed trace through it, checkpoint, restore, and fsck.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ShardedDeployment
from repro.core import DHnswConfig, fsck, tune_ef_search
from repro.datasets import exact_knn
from repro.datasets.synthetic import make_clustered
from repro.persist import load_deployment, save_deployment
from repro.replay import TraceWriter, read_trace, replay


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(31)
    vectors = make_clustered(900, 16, num_clusters=10, cluster_std=0.05,
                             rng=rng)
    queries = make_clustered(30, 16, num_clusters=10, cluster_std=0.05,
                             rng=rng)
    return vectors, queries, exact_knn(vectors, queries, 10)


def test_tune_on_sharded_deployment(corpus):
    vectors, queries, truth = corpus
    config = DHnswConfig(num_representatives=10, nprobe=4, seed=31)
    sharded = ShardedDeployment(vectors, config, num_shards=2)
    result = tune_ef_search(sharded, queries, truth, k=10,
                            target_recall=0.75, ef_max=64)
    assert result.target_met
    batch = sharded.search_batch(queries, 10, ef_search=result.ef_search)
    assert len(batch.results) == len(queries)


def test_mixed_trace_through_shards_then_checkpoint(corpus, tmp_path):
    vectors, queries, _ = corpus
    config = DHnswConfig(num_representatives=8, nprobe=3,
                         overflow_capacity_records=16, seed=32)
    sharded = ShardedDeployment(vectors, config, num_shards=2)

    # Record a mixed workload: 30 % inserts near corpus points, with
    # fresh ids (>= 10000); the rest search corpus points.
    rng = np.random.default_rng(33)
    trace_path = tmp_path / "mixed.jsonl"
    next_id = 10_000
    with TraceWriter(trace_path) as trace:
        for row in rng.integers(0, len(vectors), size=60):
            if rng.random() < 0.3:
                trace.insert(vectors[row] + rng.normal(
                    0.0, 0.01, size=vectors.shape[1]).astype(np.float32),
                    next_id)
                next_id += 1
            else:
                trace.search(vectors[row], k=5, ef_search=24)

    result = replay(sharded, read_trace(trace_path))
    assert result.operations == 60
    assert result.inserts > 5

    # Checkpoint every shard, restore, and verify integrity + equality.
    for shard_id, deployment in enumerate(sharded.deployments):
        path = tmp_path / f"shard{shard_id}"
        save_deployment(path, deployment.layout, deployment.meta, config)
        meta, layout, restored_config = load_deployment(path)
        report = fsck(layout)
        assert report.clean, report.summary()
        assert restored_config == config

    # The inserted vectors answer queries after all of that.
    probe_ops = [op for op in read_trace(trace_path)
                 if op.kind == "insert"]
    hit = sharded.search(probe_ops[0].vector, 1, ef_search=48)
    assert hit.ids[0] == probe_ops[0].global_id


def test_fsck_catches_cross_feature_corruption(corpus, tmp_path):
    vectors, _, _ = corpus
    config = DHnswConfig(num_representatives=8, nprobe=3, seed=34)
    sharded = ShardedDeployment(vectors, config, num_shards=2)
    layout = sharded.deployments[0].layout
    # Corrupt one blob on one shard only.
    entry = layout.metadata.clusters[1]
    layout.memory_node.write(layout.rkey, layout.addr(entry.blob_offset),
                             b"\xde\xad\xbe\xef")
    assert not fsck(layout).clean
    assert fsck(sharded.deployments[1].layout).clean
