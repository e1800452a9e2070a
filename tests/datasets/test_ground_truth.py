"""Exact kNN oracle correctness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.ground_truth import exact_knn
from repro.hnsw.distance import pairwise_l2


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    corpus = rng.standard_normal((400, 12)).astype(np.float32)
    queries = rng.standard_normal((25, 12)).astype(np.float32)
    return corpus, queries


def test_matches_full_argsort(data):
    corpus, queries = data
    result = exact_knn(corpus, queries, 5)
    expected = np.argsort(pairwise_l2(queries, corpus), axis=1)[:, :5]
    np.testing.assert_array_equal(result, expected)


def test_chunking_does_not_change_result(data):
    corpus, queries = data
    whole = exact_knn(corpus, queries, 8, chunk_size=1000)
    chunked = exact_knn(corpus, queries, 8, chunk_size=3)
    np.testing.assert_array_equal(whole, chunked)


def test_corpus_blocking_does_not_change_result(data):
    """Streaming the corpus in blocks must merge to the same winners."""
    corpus, queries = data
    whole = exact_knn(corpus, queries, 8, corpus_block=10_000)
    for block in (7, 64, 399, 400, 401):
        np.testing.assert_array_equal(
            whole, exact_knn(corpus, queries, 8, corpus_block=block))


def test_corpus_block_smaller_than_k(data):
    """Blocks narrower than k still accumulate a full top-k."""
    corpus, queries = data
    whole = exact_knn(corpus, queries, 8, corpus_block=10_000)
    np.testing.assert_array_equal(
        whole, exact_knn(corpus, queries, 8, corpus_block=3))


def test_distance_ties_break_by_id():
    """Duplicate corpus rows: the lower id must win deterministically."""
    row = np.ones((1, 4), dtype=np.float32)
    corpus = np.concatenate([row, row, row, np.zeros((1, 4))]).astype(
        np.float32)
    result = exact_knn(corpus, row, 3, corpus_block=2)
    np.testing.assert_array_equal(result, [[0, 1, 2]])


def test_k_clipped_to_corpus_size():
    corpus = np.eye(3, dtype=np.float32)
    queries = corpus[:1]
    result = exact_knn(corpus, queries, 10)
    assert result.shape == (1, 3)


def test_self_query_returns_self_first(data):
    corpus, _ = data
    result = exact_knn(corpus, corpus[:10], 1)
    np.testing.assert_array_equal(result[:, 0], np.arange(10))


def test_columns_sorted_by_distance(data):
    corpus, queries = data
    result = exact_knn(corpus, queries, 6)
    dists = pairwise_l2(queries, corpus)
    for row in range(queries.shape[0]):
        row_dists = dists[row, result[row]]
        assert np.all(np.diff(row_dists) >= -1e-5)


def test_validation():
    corpus = np.zeros((4, 2), dtype=np.float32)
    with pytest.raises(ValueError):
        exact_knn(corpus, corpus, 0)
    with pytest.raises(ValueError):
        exact_knn(corpus, corpus, 1, chunk_size=0)
    with pytest.raises(ValueError):
        exact_knn(corpus, corpus, 1, corpus_block=0)
