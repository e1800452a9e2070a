"""A NaN or an infinity is refused where a vector enters, by row.

No distance to a non-finite vector can be ordered, so each entry point —
the corpus a deployment is built over, ``insert`` / ``insert_batch``,
``search_batch`` and the standalone index's ``add`` / ``search`` —
raises :class:`NonFiniteVectorError` naming the first bad row before it
touches any state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Deployment
from repro.errors import NonFiniteVectorError, ReproError
from repro.hnsw import HnswIndex, HnswParams

BAD = [np.nan, np.inf, -np.inf]


def poisoned(vectors: np.ndarray, row: int, value: float) -> np.ndarray:
    out = np.array(vectors, dtype=np.float32)
    out[row, out.shape[1] // 2] = value
    return out


def test_is_a_value_error():
    assert issubclass(NonFiniteVectorError, ReproError)
    assert issubclass(NonFiniteVectorError, ValueError)


@pytest.mark.parametrize("value", BAD)
def test_build_input(small_dataset, small_config, value):
    corpus = poisoned(small_dataset.vectors, 17, value)
    with pytest.raises(NonFiniteVectorError, match="corpus row 17") as err:
        Deployment(corpus, small_config)
    assert err.value.row == 17


@pytest.mark.parametrize("value", BAD)
def test_insert(mutable_deployment, small_dataset, value):
    client = mutable_deployment.client(0)
    vector = poisoned(small_dataset.queries[:1], 0, value)[0]
    with pytest.raises(NonFiniteVectorError, match="row 0"):
        client.insert(vector, global_id=10_000)
    assert client.mutation.stats == type(client.mutation.stats)()


def test_insert_batch_names_the_row(mutable_deployment, small_dataset):
    client = mutable_deployment.client(0)
    batch = poisoned(small_dataset.queries[:5], 3, np.inf)
    with pytest.raises(NonFiniteVectorError) as err:
        client.insert_batch(batch, list(range(10_000, 10_005)))
    assert err.value.row == 3


@pytest.mark.parametrize("value", BAD)
def test_search_batch(built_deployment, small_dataset, value):
    queries = poisoned(small_dataset.queries[:4], 2, value)
    with pytest.raises(NonFiniteVectorError, match="query row 2"):
        built_deployment.client(0).search_batch(queries, 10)


class TestHnswIndex:
    @pytest.fixture()
    def index(self, small_dataset):
        index = HnswIndex(small_dataset.vectors.shape[1],
                          HnswParams(m=4, ef_construction=16, seed=1))
        index.add(small_dataset.vectors[:50])
        return index

    @pytest.mark.parametrize("value", BAD)
    def test_add(self, index, small_dataset, value):
        rows = poisoned(small_dataset.vectors[50:60], 6, value)
        with pytest.raises(NonFiniteVectorError) as err:
            index.add(rows)
        assert err.value.row == 6
        assert len(index) == 50

    def test_add_one(self, index, small_dataset):
        vector = poisoned(small_dataset.vectors[50:51], 0, np.nan)[0]
        with pytest.raises(NonFiniteVectorError):
            index.add_one(vector)
        assert len(index) == 50

    def test_overflowing_float32_is_infinite(self, index):
        """A float64 past float32's range becomes inf when stored."""
        vector = np.zeros(index.dim)
        vector[0] = 1e300
        with pytest.raises(NonFiniteVectorError), np.errstate(over="ignore"):
            index.add(vector[None])

    @pytest.mark.parametrize("value", BAD)
    def test_search(self, index, small_dataset, value):
        query = poisoned(small_dataset.queries[:1], 0, value)[0]
        with pytest.raises(NonFiniteVectorError, match="query row 0"):
            index.search(query, k=5)
