"""Product quantization: codebooks, ADC, re-ranked search."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import exact_knn
from repro.errors import ConfigError, EmptyIndexError
from repro.pq import PqCodebook, PqRerankIndex


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((1500, 16)).astype(np.float32)
    queries = rng.standard_normal((20, 16)).astype(np.float32)
    return data, queries, exact_knn(data, queries, 10)


@pytest.fixture(scope="module")
def codebook(corpus):
    data, _, _ = corpus
    book = PqCodebook(16, num_subspaces=4, seed=1)
    book.train(data)
    return book


class TestCodebook:
    def test_construction_validation(self):
        with pytest.raises(ConfigError, match="divide"):
            PqCodebook(10, num_subspaces=3)
        with pytest.raises(ConfigError, match="dim"):
            PqCodebook(0, num_subspaces=1)

    def test_untrained_rejects_encode(self):
        book = PqCodebook(8, num_subspaces=2)
        with pytest.raises(ConfigError, match="not trained"):
            book.encode(np.zeros((1, 8), dtype=np.float32))

    def test_training_sample_too_small(self):
        book = PqCodebook(8, num_subspaces=2)
        with pytest.raises(ConfigError, match="training"):
            book.train(np.zeros((10, 8), dtype=np.float32))

    def test_code_shape_and_range(self, codebook, corpus):
        data, _, _ = corpus
        codes = codebook.encode(data[:50])
        assert codes.shape == (50, 4)
        assert codes.dtype == np.uint8
        assert codes.max() < codebook.num_centroids

    def test_code_bytes(self, codebook):
        assert codebook.code_bytes == 4  # vs 64 B of float32

    def test_reconstruction_beats_zero_baseline(self, codebook, corpus):
        data, _, _ = corpus
        error = codebook.quantization_error(data[:200])
        zero_error = float((data[:200] ** 2).sum(axis=1).mean())
        assert 0 < error < zero_error / 2

    def test_more_subspaces_less_error(self, corpus):
        data, _, _ = corpus
        coarse = PqCodebook(16, num_subspaces=2, seed=2)
        fine = PqCodebook(16, num_subspaces=8, seed=2)
        coarse.train(data)
        fine.train(data)
        assert (fine.quantization_error(data[:200])
                < coarse.quantization_error(data[:200]))

    def test_decode_encode_fixed_point(self, codebook, corpus):
        """Decoding then re-encoding must be a fixed point: centroids
        quantize to themselves."""
        data, _, _ = corpus
        codes = codebook.encode(data[:30])
        recoded = codebook.encode(codebook.decode(codes))
        np.testing.assert_array_equal(codes, recoded)


class TestAdc:
    def test_adc_matches_distance_to_reconstruction(self, codebook,
                                                    corpus):
        data, queries, _ = corpus
        codes = codebook.encode(data[:100])
        reconstructed = codebook.decode(codes)
        adc = codebook.adc_distances(queries[0], codes)
        from repro.hnsw.distance import DistanceKernel
        exact = DistanceKernel(16).many(queries[0], reconstructed)
        np.testing.assert_allclose(adc, exact, rtol=1e-3, atol=1e-2)

    def test_adc_table_shape(self, codebook, corpus):
        _, queries, _ = corpus
        tables = codebook.adc_tables(queries[0])
        assert tables.shape == (4, codebook.num_centroids)
        assert (tables >= 0).all()


class TestPqRerankIndex:
    @pytest.fixture(scope="class")
    def index(self, codebook, corpus):
        data, _, _ = corpus
        built = PqRerankIndex(codebook)
        built.add(data)
        return built

    def test_requires_trained_codebook(self):
        with pytest.raises(ConfigError):
            PqRerankIndex(PqCodebook(8, num_subspaces=2))

    def test_reranked_recall_beats_pure_adc(self, index, corpus):
        _, queries, truth = corpus

        def recall(rerank):
            hits = 0
            for row, query in enumerate(queries):
                labels, _ = index.search(query, 10, rerank=rerank)
                hits += len(set(labels.tolist())
                            & set(truth[row].tolist()))
            return hits / 200

        assert recall(100) > recall(0)
        assert recall(100) >= 0.85

    def test_compression_ratio(self, index):
        # 4 code bytes vs 64 float bytes per vector: 16x.
        assert index.full_bytes / index.compressed_bytes == 16.0

    def test_rerank_zero_uses_no_exact_distances(self, index, corpus):
        _, queries, _ = corpus
        index.reset_compute_counter()
        index.search(queries[0], 5, rerank=0)
        assert index.compute_count == 0

    def test_rerank_bounds_exact_work(self, index, corpus):
        _, queries, _ = corpus
        index.reset_compute_counter()
        index.search(queries[0], 5, rerank=37)
        assert index.compute_count == 37

    def test_empty_index(self, codebook):
        with pytest.raises(EmptyIndexError):
            PqRerankIndex(codebook).search(np.zeros(16), 1)

    def test_custom_labels(self, codebook, corpus):
        data, _, _ = corpus
        built = PqRerankIndex(codebook)
        built.add(data[:10], labels=range(700, 710))
        labels, _ = built.search(data[3], 1)
        assert labels[0] == 703


class TestTieBreaking:
    """Duplicate-distance candidates must resolve exactly like
    ``exact_knn``'s lexicographic (distance, id) order."""

    @pytest.fixture(scope="class")
    def dup_world(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal((64, 16)).astype(np.float32)
        # Each base row repeated 4x: every exact distance ties 4-way,
        # and labels are deliberately shuffled so "first inserted wins"
        # would disagree with "smallest id wins".
        data = np.repeat(base, 4, axis=0)
        labels = rng.permutation(len(data)).astype(np.int64)
        queries = base[:8] + rng.normal(
            0, 1e-3, size=(8, 16)).astype(np.float32)
        book = PqCodebook(16, num_subspaces=4, seed=2)
        book.train(data)
        index = PqRerankIndex(book)
        index.add(data, labels=labels.tolist())
        return data, labels, queries, index

    def test_reranked_matches_exact_knn_order(self, dup_world):
        data, labels, queries, index = dup_world
        # exact_knn works over row ids; map its answers through the
        # shuffled labels by building the corpus in label order.
        by_label = np.empty_like(data)
        by_label[labels] = data
        truth = exact_knn(by_label, queries, 12)
        for row, query in enumerate(queries):
            got, dists = index.search(query, 12, rerank=len(index))
            assert got.tolist() == truth[row].tolist()
            assert (np.diff(dists) >= 0).all()

    def test_ties_sorted_by_label_within_distance(self, dup_world):
        _, _, queries, index = dup_world
        got, dists = index.search(queries[0], 8, rerank=len(index))
        for i in range(len(got) - 1):
            if dists[i] == dists[i + 1]:
                assert got[i] < got[i + 1]

    def test_pure_adc_ties_sorted_by_label(self, dup_world):
        # Duplicate rows share PQ codes, so ADC distances tie exactly.
        _, _, queries, index = dup_world
        got, dists = index.search(queries[0], 8, rerank=0)
        for i in range(len(got) - 1):
            if dists[i] == dists[i + 1]:
                assert got[i] < got[i + 1]


class TestTrainingDeterminism:
    def test_seed_gives_byte_identical_centroids(self, corpus):
        data, _, _ = corpus
        books = []
        for _ in range(2):
            book = PqCodebook(16, num_subspaces=4, seed=9)
            book.train(data)
            books.append(book)
        assert books[0].centroids.tobytes() == books[1].centroids.tobytes()

    def test_explicit_seed_overrides_constructor(self, corpus):
        data, _, _ = corpus
        a = PqCodebook(16, num_subspaces=4, seed=1)
        a.train(data, seed=42)
        b = PqCodebook(16, num_subspaces=4, seed=2)
        b.train(data, seed=42)
        assert a.centroids.tobytes() == b.centroids.tobytes()

    def test_different_seeds_differ(self, corpus):
        data, _, _ = corpus
        a = PqCodebook(16, num_subspaces=4, seed=1)
        a.train(data)
        b = PqCodebook(16, num_subspaces=4, seed=2)
        b.train(data)
        assert a.centroids.tobytes() != b.centroids.tobytes()

    def test_subspace_streams_independent(self, corpus):
        # Training a 4-subspace book and a 2-subspace book over the same
        # seed must give each subspace its own stream: subspace 0 of the
        # 4-way book depends only on (seed, 0), not on how many other
        # subspaces trained after it.
        data, _, _ = corpus
        wide = PqCodebook(16, num_subspaces=4, seed=7)
        wide.train(data)
        again = PqCodebook(16, num_subspaces=4, seed=7)
        again.train(data[:, :])
        assert wide.centroids.tobytes() == again.centroids.tobytes()
