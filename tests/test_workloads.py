"""Workload generators: shapes, skew, and stream semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.workloads import (
    uniform_queries,
    zipfian_cluster_queries,
    zipfian_queries,
)


@pytest.fixture()
def corpus():
    return np.random.default_rng(0).random((200, 8), dtype=np.float32)


class TestUniformQueries:
    def test_shape_and_dtype(self, corpus):
        queries = uniform_queries(corpus, 50, np.random.default_rng(1))
        assert queries.shape == (50, 8)
        assert queries.dtype == np.float32

    def test_zero_noise_yields_corpus_rows(self, corpus):
        queries = uniform_queries(corpus, 20, np.random.default_rng(1))
        corpus_set = {row.tobytes() for row in corpus}
        assert all(query.tobytes() in corpus_set for query in queries)

    def test_noise_perturbs(self, corpus):
        queries = uniform_queries(corpus, 20, np.random.default_rng(1),
                                  noise_std=0.1)
        corpus_set = {row.tobytes() for row in corpus}
        assert not all(query.tobytes() in corpus_set for query in queries)

    def test_validation(self, corpus):
        with pytest.raises(ConfigError):
            uniform_queries(corpus, 0, np.random.default_rng(0))


class TestZipfianQueries:
    def test_skew_concentrates_mass(self, corpus):
        queries = zipfian_queries(corpus, 2000, np.random.default_rng(2),
                                  skew=2.0)
        _, counts = np.unique(queries, axis=0, return_counts=True)
        top_share = np.sort(counts)[::-1][:5].sum() / 2000
        assert top_share > 0.5  # top-5 vectors dominate

    def test_stronger_skew_more_concentrated(self, corpus):
        rng = np.random.default_rng
        mild = zipfian_queries(corpus, 2000, rng(3), skew=3.0)
        assert len(np.unique(mild, axis=0)) < 50

    def test_invalid_skew(self, corpus):
        with pytest.raises(ConfigError):
            zipfian_queries(corpus, 10, np.random.default_rng(0), skew=1.0)


class TestZipfianClusterQueries:
    @pytest.fixture()
    def cluster_of(self, corpus):
        return np.arange(corpus.shape[0]) % 10

    @staticmethod
    def clusters_hit(corpus, cluster_of, queries):
        """The cluster of the corpus row each query repeats."""
        row_of = {row.tobytes(): i for i, row in enumerate(corpus)}
        return cluster_of[[row_of[query.tobytes()] for query in queries]]

    def test_zero_noise_yields_rows_of_the_drawn_cluster(self, corpus,
                                                         cluster_of):
        queries = zipfian_cluster_queries(corpus, cluster_of, 300,
                                          np.random.default_rng(11))
        # Every query is a corpus row, of the cluster the same seed's
        # Zipf draw over a permutation of cluster ids picked for it.
        rng = np.random.default_rng(11)
        permutation = rng.permutation(10)
        ranks = rng.zipf(1.2, size=300)
        drawn = permutation[(ranks - 1) % 10]
        assert list(self.clusters_hit(corpus, cluster_of, queries)) == list(
            drawn)

    def test_hottest_cluster_share_rises_with_skew(self, corpus,
                                                   cluster_of):
        def hottest_share(skew):
            queries = zipfian_cluster_queries(
                corpus, cluster_of, 2000, np.random.default_rng(12),
                skew=skew)
            clusters = self.clusters_hit(corpus, cluster_of, queries)
            return np.bincount(clusters).max() / 2000

        shares = [hottest_share(skew) for skew in (1.1, 1.5, 2.5)]
        assert shares[0] < shares[1] < shares[2]

    def test_same_seed_same_queries(self, corpus, cluster_of):
        first, second = (zipfian_cluster_queries(
            corpus, cluster_of, 100, np.random.default_rng(13),
            noise_std=0.1) for _ in range(2))
        assert np.array_equal(first, second)

    def test_validation(self, corpus, cluster_of):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            zipfian_cluster_queries(corpus, cluster_of, 10, rng, skew=1.0)
        with pytest.raises(ConfigError):
            zipfian_cluster_queries(corpus, cluster_of, 0, rng)
        with pytest.raises(ConfigError):
            zipfian_cluster_queries(corpus, cluster_of[:-1], 10, rng)
