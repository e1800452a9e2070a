"""Meta-HNSW: three-layer structure, routing, classification."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import meta_index
from repro.core.meta_index import MetaHnsw, sample_representatives
from repro.errors import ConfigError
from repro.hnsw.distance import pairwise_l2
from repro.hnsw.params import HnswParams

META_PARAMS = HnswParams(m=8, ef_construction=64, max_level=2, seed=0)


@pytest.fixture(scope="module")
def representatives():
    return np.random.default_rng(3).uniform(
        0, 1, size=(100, 16)).astype(np.float32)


@pytest.fixture(scope="module")
def meta(representatives):
    return MetaHnsw(representatives, META_PARAMS)


class TestSampling:
    def test_unique_sorted_rows(self):
        rng = np.random.default_rng(0)
        rows = sample_representatives(1000, 50, rng)
        assert len(rows) == 50
        assert len(set(rows.tolist())) == 50
        assert np.all(np.diff(rows) > 0)

    def test_oversampling_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            sample_representatives(10, 11, rng)


class TestStructure:
    def test_exactly_three_layers(self, meta):
        sizes = meta.index.layer_sizes()
        assert len(sizes) == 3

    def test_layer_populations_shrink(self, meta):
        sizes = meta.index.layer_sizes()
        assert sizes[0] == 100
        assert sizes[0] > sizes[1] > sizes[2] >= 1

    def test_num_partitions_equals_reps(self, meta):
        assert meta.num_partitions == 100

    def test_requires_three_layer_params(self, representatives):
        with pytest.raises(ConfigError, match="three-layered"):
            MetaHnsw(representatives, HnswParams(m=8, max_level=1))

    def test_single_representative_allowed(self):
        single = MetaHnsw(np.zeros((1, 4), dtype=np.float32), META_PARAMS)
        assert single.num_partitions == 1
        assert single.route_batch(np.ones(4), 1, 4) == [[0]]


@pytest.fixture()
def fixed_width(monkeypatch):
    """The paper's router: every one of the ``nprobe`` closest."""
    monkeypatch.setattr(meta_index, "ROUTE_ALPHA", math.inf)


class TestRouting:
    def test_route_returns_nprobe_partitions(self, meta, fixed_width):
        query = np.full(16, 0.5, dtype=np.float32)
        [routed] = meta.route_batch(query, 5, ef=16)
        assert len(routed) == 5
        assert len(set(routed)) == 5

    def test_route_clips_to_partition_count(self, meta, fixed_width):
        [routed] = meta.route_batch(np.zeros(16), 1000, ef=128)
        assert len(routed) == 100

    def test_routing_approximates_exact_nearest(self, meta,
                                                representatives):
        queries = np.random.default_rng(5).uniform(
            0, 1, size=(30, 16)).astype(np.float32)
        exact = np.argmin(pairwise_l2(queries, representatives), axis=1)
        routed = meta.route_batch(queries, 1, ef=32)
        agree = sum(ids[0] == exact[row] for row, ids in enumerate(routed))
        assert agree >= 27  # >= 90 % top-1 agreement

    def test_classify_matches_route_top1(self, meta):
        query = np.random.default_rng(6).uniform(0, 1, 16).astype(np.float32)
        assert (meta.classify(query, ef=32)
                == meta.route_batch(query, 1, 32)[0][0])

    def test_classify_batch(self, meta):
        """One routing call for the batch: same partitions and the same
        distance evaluations as classifying row by row."""
        queries = np.random.default_rng(7).uniform(
            0, 1, size=(5, 16)).astype(np.float32)
        meta.reset_compute_counter()
        batch = meta.classify_batch(queries, ef=32)
        batch_evals = meta.reset_compute_counter()
        singles = [meta.classify(query, ef=32) for query in queries]
        assert meta.reset_compute_counter() == batch_evals > 0
        np.testing.assert_array_equal(batch, singles)

    def test_invalid_nprobe(self, meta):
        with pytest.raises(ConfigError):
            meta.route_batch(np.zeros(16), 0, 8)


class TestFootprint:
    def test_serialized_size_is_small(self, meta):
        # 100 reps x 16 dims: the whole meta index must stay in the tens
        # of KB (the paper reports 0.373 MB for 500 reps x 128 dims).
        size = meta.serialized_size_bytes()
        assert 0 < size < 100_000

    def test_compute_counter_roundtrip(self, meta):
        meta.reset_compute_counter()
        meta.route_batch(np.zeros(16), 3, 16)
        assert meta.compute_count > 0
        meta.reset_compute_counter()
        assert meta.compute_count == 0
