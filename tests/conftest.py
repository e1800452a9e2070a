"""Shared fixtures.

Expensive artefacts (built deployments) are session-scoped: building a
d-HNSW layout runs the full partition + sub-HNSW + serialization pipeline,
so tests share one small deployment unless they need to mutate it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Deployment
from repro.core import DHnswConfig
from repro.datasets import Dataset, exact_knn
from repro.datasets.synthetic import make_clustered
from repro.rdma import CostModel


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """Session RNG for cheap random inputs (seeded for determinism)."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_dataset() -> Dataset:
    """A tiny clustered corpus with exact ground truth (dim 24)."""
    generator = np.random.default_rng(7)
    corpus = make_clustered(1200, 24, num_clusters=12, cluster_std=0.06,
                            rng=generator)
    queries = make_clustered(40, 24, num_clusters=12, cluster_std=0.06,
                             rng=generator)
    return Dataset(name="tiny", vectors=corpus, queries=queries,
                   ground_truth=exact_knn(corpus, queries, 10))


@pytest.fixture(scope="session")
def small_config() -> DHnswConfig:
    """Config sized for the tiny corpus: 12 partitions, cache of 2."""
    return DHnswConfig(num_representatives=12, nprobe=3, ef_meta=16,
                       cache_fraction=0.2,
                       overflow_capacity_records=8, seed=7)


@pytest.fixture(scope="session")
def built_deployment(small_dataset: Dataset,
                     small_config: DHnswConfig) -> Deployment:
    """One shared read-only deployment over the tiny corpus.

    Tests that insert/rebuild must build their own deployment instead.
    """
    return Deployment(small_dataset.vectors, small_config,
                      cost_model=CostModel())


@pytest.fixture()
def mutable_deployment(small_dataset: Dataset,
                       small_config: DHnswConfig) -> Deployment:
    """A private deployment for tests that mutate remote state."""
    return Deployment(small_dataset.vectors, small_config,
                      cost_model=CostModel())
