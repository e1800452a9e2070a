"""Unit and property tests for the counted distance kernels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import DimensionMismatchError
from repro.hnsw.distance import DistanceKernel, pairwise_l2

FINITE = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False,
                   allow_infinity=False, width=32)


def vectors(dim: int, count: int):
    return arrays(np.float32, (count, dim), elements=FINITE)


class TestKernelBasics:
    def test_l2_one(self):
        kernel = DistanceKernel(3)
        assert kernel.one([0, 0, 0], [3, 4, 0]) == pytest.approx(25.0)

    def test_invalid_dim_rejected(self):
        with pytest.raises(ValueError, match="dim must be positive"):
            DistanceKernel(0)

    def test_dimension_mismatch(self):
        kernel = DistanceKernel(4)
        with pytest.raises(DimensionMismatchError) as excinfo:
            kernel.one([1, 2, 3], [1, 2, 3, 4])
        assert excinfo.value.expected == 4
        assert excinfo.value.actual == 3


class TestCounting:
    def test_one_counts_single(self):
        kernel = DistanceKernel(2)
        kernel.one([0, 0], [1, 1])
        assert kernel.num_evaluations == 1

    def test_many_counts_rows(self):
        kernel = DistanceKernel(2)
        kernel.many([0, 0], np.ones((7, 2)))
        assert kernel.num_evaluations == 7

    def test_cross_counts_product(self):
        kernel = DistanceKernel(2)
        kernel.cross(np.ones((3, 2)), np.ones((5, 2)))
        assert kernel.num_evaluations == 15

    def test_reset_returns_previous(self):
        kernel = DistanceKernel(2)
        kernel.many([0, 0], np.ones((4, 2)))
        assert kernel.reset_counter() == 4
        assert kernel.num_evaluations == 0


class TestConsistencyAcrossShapes:
    # The ``Metric.L2`` ids are kept from when every distance the kernel
    # used to offer was parametrized here.
    @pytest.mark.parametrize("dim", [8], ids=["Metric.L2"])
    def test_many_matches_one(self, dim, rng):
        kernel = DistanceKernel(dim)
        query = rng.standard_normal(dim).astype(np.float32)
        corpus = rng.standard_normal((10, dim)).astype(np.float32)
        batch = kernel.many(query, corpus)
        singles = [kernel.one(query, row) for row in corpus]
        np.testing.assert_allclose(batch, singles, rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("dim", [8], ids=["Metric.L2"])
    def test_cross_matches_many(self, dim, rng):
        kernel = DistanceKernel(dim)
        queries = rng.standard_normal((4, dim)).astype(np.float32)
        corpus = rng.standard_normal((6, dim)).astype(np.float32)
        matrix = kernel.cross(queries, corpus)
        for row, query in enumerate(queries):
            np.testing.assert_allclose(matrix[row],
                                       kernel.many(query, corpus),
                                       rtol=1e-4, atol=1e-4)


class TestPairwiseL2Properties:
    @settings(max_examples=50, deadline=None)
    @given(data=vectors(6, 5))
    def test_self_distance_zero(self, data):
        dists = pairwise_l2(data, data)
        # The |q|^2 - 2qx + |x|^2 expansion cancels catastrophically on
        # the diagonal, so the float32 error scales with the squared
        # norms, not with the true distance (which is exactly 0).
        tolerance = 1e-2 + 1e-4 * float(np.max(np.sum(data * data, axis=1)))
        np.testing.assert_allclose(np.diag(dists), 0.0, atol=tolerance)

    @settings(max_examples=50, deadline=None)
    @given(a=vectors(6, 4), b=vectors(6, 3))
    def test_nonnegative_and_symmetric(self, a, b):
        forward = pairwise_l2(a, b)
        backward = pairwise_l2(b, a)
        assert (forward >= 0).all()
        np.testing.assert_allclose(forward, backward.T, rtol=1e-3,
                                   atol=1e-2)

    @settings(max_examples=50, deadline=None)
    @given(a=vectors(4, 3), b=vectors(4, 3))
    def test_matches_direct_expansion(self, a, b):
        direct = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(pairwise_l2(a, b), direct, rtol=1e-2,
                                   atol=1e-1)


class TestL2Table:
    def test_uncounted(self):
        kernel = DistanceKernel(4)
        kernel.l2_table(np.ones(4, dtype=np.float32),
                        np.zeros((6, 4), dtype=np.float32))
        assert kernel.num_evaluations == 0

    def test_single_query_bitwise_matches_many(self, rng):
        kernel = DistanceKernel(8)
        query = rng.standard_normal(8).astype(np.float32)
        corpus = rng.standard_normal((50, 8)).astype(np.float32)
        table = kernel.l2_table(query, corpus)
        np.testing.assert_array_equal(table, kernel.many(query, corpus))

    def test_row_subsets_bitwise_match(self, rng):
        """The equivalence contract of the compiled table engine: any
        row subset of the table equals evaluating that subset directly."""
        kernel = DistanceKernel(8)
        query = rng.standard_normal(8).astype(np.float32)
        corpus = rng.standard_normal((64, 8)).astype(np.float32)
        table = kernel.l2_table(query, corpus)
        for _ in range(10):
            size = int(rng.integers(1, 64))
            subset = rng.choice(64, size=size, replace=False)
            np.testing.assert_array_equal(
                table[subset], kernel.many(query, corpus[subset]))

    def test_batched_bitwise_matches_per_query(self, rng):
        kernel = DistanceKernel(8)
        queries = rng.standard_normal((7, 8)).astype(np.float32)
        corpus = rng.standard_normal((40, 8)).astype(np.float32)
        batched = kernel.l2_table(queries, corpus)
        assert batched.dtype == np.float32
        for row, query in enumerate(queries):
            np.testing.assert_array_equal(batched[row],
                                          kernel.l2_table(query, corpus))

    def test_batched_chunking_is_transparent(self, rng, monkeypatch):
        monkeypatch.setattr(DistanceKernel, "TABLE_CHUNK_ELEMENTS", 16)
        kernel = DistanceKernel(8)
        queries = rng.standard_normal((9, 8)).astype(np.float32)
        corpus = rng.standard_normal((21, 8)).astype(np.float32)
        chunked = kernel.l2_table(queries, corpus)
        for row, query in enumerate(queries):
            np.testing.assert_array_equal(chunked[row],
                                          kernel.l2_table(query, corpus))
