"""``search_batch`` refuses, at its entry and by name, what it cannot
answer: a ``k`` that is not an integer >= 1 (NumPy integers are), an
``ef_search`` that is not an integer, and queries that are not one vector
or one batch of rows of the index's dimension."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.errors import DimensionMismatchError


@pytest.mark.parametrize("k", [2.5, 3.0, 0, -1, True, "3", None])
def test_k_must_be_an_integer_of_at_least_one(built_deployment,
                                              small_dataset, k):
    client = built_deployment.client(0)
    with pytest.raises(ValueError, match="k must be an integer >= 1"):
        client.search_batch(small_dataset.queries[:2], k)


@pytest.mark.parametrize("k", [3, np.int64(3), np.int32(3), np.uint8(3)])
def test_numpy_integers_are_integers(built_deployment, small_dataset, k):
    result = built_deployment.client(0).search_batch(
        small_dataset.queries[:2], k)
    assert [len(row.ids) for row in result.results] == [3, 3]


@pytest.mark.parametrize("ef", [float("nan"), 2.5, True],
                         ids=["nan", "fraction", "bool"])
def test_ef_search_must_be_an_integer(built_deployment, small_dataset, ef):
    """``max(nan, k)`` is ``nan``: a NaN beam once answered one row
    instead of ``k``."""
    client = built_deployment.client(0)
    with pytest.raises(ValueError,
                       match=re.escape(f"ef_search must be an integer, got "
                                       f"{ef!r}")):
        client.search_batch(small_dataset.queries[:2], 5, ef_search=ef)


@pytest.mark.parametrize("ef", [3, np.int64(3), 0, -1])
def test_ef_search_below_k_is_clamped_to_k(built_deployment, small_dataset,
                                           ef):
    client = built_deployment.client(0)
    clamped, at_k = (client.search_batch(small_dataset.queries[:2], 5,
                                         ef_search=width)
                     for width in (ef, 5))
    assert clamped.ids_list() == at_k.ids_list()
    assert [len(row.ids) for row in clamped.results] == [5, 5]


@pytest.mark.parametrize("shape", [(2, 2, 24), (2, 23), (23,), (1, 1, 24),
                                   ()])
def test_query_shape_is_named(built_deployment, shape):
    client = built_deployment.client(0)
    assert client.meta.dim == 24
    with pytest.raises(DimensionMismatchError,
                       match=re.escape(f"expected dimension 24, got shape "
                                       f"{shape}")):
        client.search_batch(np.zeros(shape, dtype=np.float32), 5)


def test_one_vector_is_a_batch_of_one(built_deployment, small_dataset):
    client = built_deployment.client(0)
    one = client.search_batch(small_dataset.queries[0], 5)
    batch = client.search_batch(small_dataset.queries[:1], 5)
    assert one.batch_size == 1
    np.testing.assert_array_equal(one.results[0].ids, batch.results[0].ids)
