"""End-to-end behaviour of the standalone :class:`HnswIndex`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.ground_truth import exact_knn
from repro.errors import EmptyIndexError
from repro.hnsw import HnswIndex, HnswParams


@pytest.fixture(scope="module")
def corpus():
    generator = np.random.default_rng(42)
    return generator.standard_normal((1500, 16)).astype(np.float32)


@pytest.fixture(scope="module")
def built_index(corpus):
    index = HnswIndex(16, HnswParams(m=12, ef_construction=80, seed=9))
    index.add(corpus)
    return index


class TestSearchQuality:
    def test_recall_at_10_exceeds_090(self, built_index, corpus):
        generator = np.random.default_rng(7)
        queries = generator.standard_normal((40, 16)).astype(np.float32)
        truth = exact_knn(corpus, queries, 10)
        hits = 0
        for row, query in enumerate(queries):
            labels, _ = built_index.search(query, 10, ef=64)
            hits += len(set(labels.tolist()) & set(truth[row].tolist()))
        assert hits / 400 >= 0.90

    def test_exact_match_found_at_k1(self, built_index, corpus):
        labels, dists = built_index.search(corpus[123], 1, ef=32)
        assert labels[0] == 123
        assert dists[0] == pytest.approx(0.0, abs=1e-5)

    def test_distances_ascending(self, built_index, corpus):
        _, dists = built_index.search(corpus[5], 10, ef=40)
        assert np.all(np.diff(dists) >= 0)

    def test_larger_ef_never_reduces_candidates(self, built_index, corpus):
        query = corpus[7] + 0.05
        few = built_index.search_candidates(query, 5, ef=5)
        many = built_index.search_candidates(query, 5, ef=50)
        assert len(many) >= len(few)
        assert many[0][0] <= few[0][0]  # best distance no worse


class TestApiContract:
    def test_search_empty_index_raises(self):
        index = HnswIndex(4)
        with pytest.raises(EmptyIndexError):
            index.search(np.zeros(4), 1)

    def test_k_validation(self, built_index):
        with pytest.raises(ValueError, match="k must be >= 1"):
            built_index.search(np.zeros(16), 0)

    def test_labels_default_to_node_ids(self):
        index = HnswIndex(2, HnswParams(m=4))
        index.add(np.eye(2, dtype=np.float32))
        assert index.labels == [0, 1]

    def test_custom_labels_returned(self):
        index = HnswIndex(2, HnswParams(m=4))
        index.add(np.eye(2, dtype=np.float32), labels=[100, 200])
        labels, _ = index.search(np.array([1.0, 0.0]), 1)
        assert labels[0] == 100

    def test_label_count_mismatch(self):
        index = HnswIndex(2, HnswParams(m=4))
        with pytest.raises(ValueError, match="labels"):
            index.add(np.eye(2, dtype=np.float32), labels=[1])

    def test_len_tracks_additions(self):
        index = HnswIndex(3, HnswParams(m=4))
        assert len(index) == 0
        index.add_one(np.zeros(3))
        assert len(index) == 1


class TestDeterminism:
    def test_same_seed_same_structure(self):
        generator = np.random.default_rng(3)
        data = generator.standard_normal((200, 8)).astype(np.float32)
        first = HnswIndex(8, HnswParams(m=8, seed=5))
        second = HnswIndex(8, HnswParams(m=8, seed=5))
        first.add(data)
        second.add(data)
        assert first.graph.adjacency == second.graph.adjacency

    def test_layer_sizes_decrease(self):
        generator = np.random.default_rng(3)
        data = generator.standard_normal((1000, 8)).astype(np.float32)
        index = HnswIndex(8, HnswParams(m=8, seed=1))
        index.add(data)
        sizes = index.layer_sizes()
        assert sizes[0] == 1000
        assert all(sizes[i] >= sizes[i + 1] for i in range(len(sizes) - 1))


class TestComputeCounter:
    def test_counter_accumulates_and_resets(self, built_index, corpus):
        built_index.reset_compute_counter()
        built_index.search(corpus[0], 5, ef=20)
        first = built_index.compute_count
        assert first > 0
        assert built_index.reset_compute_counter() == first
        assert built_index.compute_count == 0
