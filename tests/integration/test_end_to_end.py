"""Full-pipeline integration: build -> query -> insert -> rebuild -> query,
mirroring the lifecycle the paper's Fig. 2 architecture serves."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Deployment, LoadBalancer
from repro.core import DHnswConfig, Scheme
from repro.datasets import exact_knn
from repro.datasets.synthetic import make_clustered
from repro.metrics import recall_at_k


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(99)
    corpus = make_clustered(1500, 20, num_clusters=15, cluster_std=0.05,
                            rng=rng)
    queries = make_clustered(50, 20, num_clusters=15, cluster_std=0.05,
                             rng=rng)
    truth = exact_knn(corpus, queries, 10)
    config = DHnswConfig(num_representatives=15, nprobe=4, ef_meta=24,
                         cache_fraction=0.25, overflow_capacity_records=6,
                         seed=1)
    deployment = Deployment(corpus, config, num_compute_instances=2,
                            simulate_link_contention=False)
    return corpus, queries, truth, config, deployment


def test_lifecycle(world):
    corpus, queries, truth, config, deployment = world
    balancer = LoadBalancer(deployment)

    # Phase 1: cold query batch.
    cold = balancer.dispatch_batch(queries, 10, ef_search=48)
    assert recall_at_k(cold.ids_list(), truth, 10) >= 0.8

    # Phase 2: dynamic insertions from one instance, enough to force at
    # least one group rebuild.
    writer = deployment.client(0)
    inserted_ids = []
    rebuilds = 0
    for i in range(40):
        gid = 1_000_000 + i
        report = writer.insert(queries[i % len(queries)] + 1e-4 * i, gid)
        rebuilds += report.triggered_rebuild
        inserted_ids.append(gid)
    assert rebuilds >= 1

    # Phase 3: the *other* instance must observe every insertion.
    reader = deployment.client(1)
    probe_batch = np.stack([queries[i % len(queries)] + 1e-4 * i
                            for i in range(40)])
    results = reader.search_batch(probe_batch, 1, ef_search=64)
    found = {result.ids[0] for result in results.results}
    assert found == set(inserted_ids)

    # Phase 4: recall against the *augmented* corpus (base + inserts) is
    # as good as the cold recall — the inserted near-duplicates rightly
    # displace old neighbours, and the base corpus remains intact.
    augmented = np.vstack(
        [corpus] + [(queries[i % len(queries)] + 1e-4 * i)[None]
                    for i in range(40)])
    augmented_truth = exact_knn(augmented, queries, 10)
    id_map = {len(corpus) + i: 1_000_000 + i for i in range(40)}
    mapped_truth = np.vectorize(lambda x: id_map.get(x, x))(augmented_truth)
    warm = balancer.dispatch_batch(queries, 10, ef_search=48)
    baseline = recall_at_k(cold.ids_list(), truth, 10)
    after = recall_at_k(warm.ids_list(), mapped_truth, 10)
    assert after >= baseline - 0.05

    # Base-corpus-only recall (filtering inserted ids) is untouched.
    deep = balancer.dispatch_batch(queries, 20, ef_search=64)
    base_only = [[x for x in row if x < 1_000_000][:10]
                 for row in deep.ids_list()]
    assert recall_at_k(base_only, truth, 10) >= baseline - 0.05


def test_scheme_equivalence_after_churn(world):
    """All three schemes must agree on results even with overflow data."""
    corpus, queries, truth, config, deployment = world
    answers = []
    for scheme in Scheme:
        client = deployment.make_client(scheme)
        batch = client.search_batch(queries[:20], 5, ef_search=32)
        answers.append(batch.ids_list())
    assert answers[0] == answers[1] == answers[2]


def test_memory_registration_accounted(world):
    *_, deployment = world
    node = deployment.memory_node
    assert node.registered_bytes >= (
        deployment.build_report.total_blob_bytes)


def test_compute_dram_budget_respected(world):
    """An instance's DRAM is its meta-HNSW plus what its cache holds,
    and the cache holds no more clusters than its capacity."""
    *_, deployment = world
    for client in deployment.clients:
        assert len(client.cache) <= client.cache.capacity_clusters
        assert client.dram_used_bytes == (
            client.meta.serialized_size_bytes() + client.cache.cached_bytes)
