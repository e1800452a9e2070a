"""Round-robin sharding and cluster-level result aggregation."""

from __future__ import annotations

import pytest

from repro.cluster import Deployment, LoadBalancer
from repro.metrics import recall_at_k


@pytest.fixture(scope="module")
def balanced(small_dataset, small_config):
    deployment = Deployment(small_dataset.vectors, small_config,
                            num_compute_instances=3,
                            simulate_link_contention=False)
    return deployment, LoadBalancer(deployment)


class TestSharding:
    def test_shards_cover_all_queries(self, balanced):
        _, balancer = balanced
        shards = balancer.shard(10)
        combined = sorted(int(x) for shard in shards for x in shard)
        assert combined == list(range(10))

    def test_shards_balanced_within_one(self, balanced):
        _, balancer = balanced
        sizes = [len(shard) for shard in balancer.shard(11)]
        assert max(sizes) - min(sizes) <= 1

    def test_fewer_queries_than_instances(self, balanced):
        _, balancer = balanced
        shards = balancer.shard(2)
        assert sum(len(s) for s in shards) == 2


class TestDispatch:
    def test_results_match_single_client(self, balanced, small_dataset,
                                         small_config):
        deployment, balancer = balanced
        cluster_result = balancer.dispatch_batch(small_dataset.queries, 5,
                                                 ef_search=32)
        solo = deployment.make_client(deployment.scheme)
        solo_result = solo.search_batch(small_dataset.queries, 5,
                                        ef_search=32)
        assert cluster_result.ids_list() == solo_result.ids_list()

    def test_recall_holds_under_balancing(self, balanced, small_dataset):
        _, balancer = balanced
        result = balancer.dispatch_batch(small_dataset.queries, 10,
                                         ef_search=48)
        assert recall_at_k(result.ids_list(), small_dataset.ground_truth,
                           10) >= 0.75

    def test_wall_time_is_max_not_sum(self, balanced, small_dataset):
        _, balancer = balanced
        result = balancer.dispatch_batch(small_dataset.queries, 5,
                                         ef_search=16)
        instance_totals = [batch.breakdown.total_us
                           for batch in result.per_instance]
        assert result.wall_time_us == pytest.approx(max(instance_totals))
        assert result.breakdown.total_us == pytest.approx(
            sum(instance_totals))

    def test_rdma_stats_aggregated(self, balanced, small_dataset):
        _, balancer = balanced
        result = balancer.dispatch_batch(small_dataset.queries, 5,
                                         ef_search=16)
        per_instance = sum(batch.rdma.round_trips
                           for batch in result.per_instance)
        assert result.rdma.round_trips == per_instance

    def test_throughput_uses_wall_time(self, balanced, small_dataset):
        _, balancer = balanced
        result = balancer.dispatch_batch(small_dataset.queries, 5,
                                         ef_search=16)
        expected = result.batch_size / (result.wall_time_us / 1e6)
        assert result.throughput_qps == pytest.approx(expected)
