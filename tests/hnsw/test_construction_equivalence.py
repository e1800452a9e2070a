"""Three construction paths, one graph: pair table, einsum columns, loops.

A batch (:meth:`HnswIndex.add`) reads the selector's occlusion columns
from the batch's :class:`~repro.hnsw.build.PairTable`; row-by-row
``add_one`` re-derives them with an einsum; the textbook per-candidate
loops (``tests/hnsw/reference_build.py``) are the oracle both must match.  Simulated build cost is
charged per distance evaluation and deployments are compared by SHA-256,
so the three must agree on the serialized bytes and on the evaluation
counter exactly — every assertion here is ``==``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hnsw.build as build_module
from repro.core.meta_index import MetaHnsw
from repro.hnsw.build import PairTable
from repro.hnsw.distance import DistanceKernel
from repro.hnsw.index import HnswIndex
from repro.hnsw.params import HnswParams
from repro.layout.serializer import deserialize_cluster, serialize_cluster
from tests.hnsw.reference_build import use_reference_construction

PATHS = ("table", "einsum", "reference")
DIM = 10


def vectors(count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((count, DIM)) * 4).astype(np.float32)


@pytest.fixture()
def table_reads(monkeypatch):
    """How many columns were read from a pair table, per path run."""
    reads = [0]
    column = PairTable.column

    def counted(self, node, others):
        out = column(self, node, others)
        reads[0] += out is not None
        return out

    monkeypatch.setattr(PairTable, "column", counted)
    return reads


def grow(index: HnswIndex, rows: np.ndarray, path: str,
         forced_levels: list[int] | None = None) -> tuple[bytes, int]:
    """Insert ``rows`` along ``path``; the blob and the counter."""
    if path == "einsum":
        for row, vector in enumerate(rows):
            index.add_one(vector, forced_level=(
                forced_levels[row] if forced_levels is not None else None))
    elif path == "table":
        index.add(rows, forced_levels=forced_levels)
    else:
        with pytest.MonkeyPatch.context() as patch:
            use_reference_construction(patch)
            index.add(rows, forced_levels=forced_levels)
    index.graph.check_invariants()
    return serialize_cluster(index, 0), index.kernel.num_evaluations


def assert_paths_agree(make_index, rows, table_reads,
                       forced_levels=None) -> None:
    outcomes = {}
    for path in PATHS:
        table_reads[0] = 0
        outcomes[path] = grow(make_index(), rows, path, forced_levels)
        # The comparison means something only if the table path read a
        # table and the other two never saw one.
        assert (table_reads[0] > 0) == (path == "table")
    assert outcomes["table"] == outcomes["einsum"] == outcomes["reference"]


class TestThreeWayEquivalence:
    @pytest.mark.parametrize("overrides", [
        {}, {"m": 4, "ef_construction": 16},   # narrow: more pruned backfill
    ], ids=["default", "narrow"])
    def test_fresh_build(self, table_reads, overrides):
        params = HnswParams(m=8, ef_construction=48, seed=3).replace(
            **overrides)
        assert_paths_agree(lambda: HnswIndex(DIM, params),
                           vectors(300, 1), table_reads)

    def test_appends_onto_a_deserialized_graph(self, table_reads):
        """The incremental rebuild: the base nodes' table rows are
        computed up front, the appended ones' as they are inserted, and
        one select reads both kinds of row."""
        params = HnswParams(m=8, ef_construction=48, seed=4)
        base = HnswIndex(DIM, params)
        base.add(vectors(200, 2))
        blob = serialize_cluster(base, 0)
        assert_paths_agree(lambda: deserialize_cluster(blob, params)[0],
                           vectors(24, 3), table_reads)

    def test_build_that_outgrows_the_table(self, monkeypatch, table_reads):
        monkeypatch.setattr(build_module, "TABLE_NODES_MAX", 64)
        appended = []
        append = PairTable.append
        monkeypatch.setattr(
            PairTable, "append",
            lambda self, node, row: (appended.append(node),
                                     append(self, node, row))[1])
        params = HnswParams(m=6, ef_construction=32, seed=5)
        assert_paths_agree(lambda: HnswIndex(DIM, params),
                           vectors(150, 4), table_reads)
        # Only the table path appends; it stopped at the 64-node bound.
        assert appended == list(range(1, 64))

    def test_meta_hnsw_forced_levels(self, table_reads):
        params = HnswParams(m=4, ef_construction=32, max_level=2, seed=6)
        representatives = vectors(90, 5)
        levels = MetaHnsw._layer_assignment(90, params.m)
        assert_paths_agree(lambda: HnswIndex(DIM, params), representatives,
                           table_reads, forced_levels=levels)
        table_reads[0] = 0
        meta = MetaHnsw(representatives, params)
        assert table_reads[0] > 0
        assert (serialize_cluster(meta.index, 0)
                == grow(HnswIndex(DIM, params), representatives,
                        "reference", levels)[0])

    @settings(deadline=None, max_examples=25)
    @given(count=st.integers(min_value=1, max_value=90),
           m=st.integers(min_value=2, max_value=10),
           ef_construction=st.integers(min_value=2, max_value=40),
           seed=st.integers(min_value=0, max_value=2 ** 16),
           preexisting=st.integers(min_value=0, max_value=30))
    def test_fuzz(self, count, m, ef_construction, seed, preexisting):
        params = HnswParams(m=m, ef_construction=ef_construction, seed=seed)
        rows = vectors(count, seed)

        def make_index():
            index = HnswIndex(DIM, params)
            if preexisting:
                index.add(vectors(preexisting, seed + 1))
            return index

        outcomes = [grow(make_index(), rows, path) for path in PATHS]
        assert outcomes[0] == outcomes[1] == outcomes[2]


class TestPairTable:
    def test_columns_are_the_kernel_distances(self):
        """Every stored pair, read in either direction, is bit for bit
        what ``kernel.many`` computes for it — the rows of nodes that
        predate the batch as well as the appended ones."""
        rows = vectors(40, 7)
        graph = HnswIndex(DIM, HnswParams(m=4, seed=1)).graph
        kernel = DistanceKernel(DIM)
        for vector in rows[:15]:
            graph.add_node(vector, 0)
        pairs = PairTable.for_batch(graph, kernel, 25)
        assert pairs.capacity == 40
        for vector in rows[15:]:
            row = kernel.l2_table(vector, graph.vectors)
            pairs.append(graph.add_node(vector, 0), row)
        everyone = np.arange(40)
        for node in range(40):
            assert np.array_equal(pairs.column(node, everyone),
                                  kernel.many(rows[node], rows))

    def test_not_built_without_distance_tables(self, monkeypatch):
        index = HnswIndex(DIM, HnswParams(m=4))
        assert PairTable.for_batch(index.graph, index.kernel,
                                   8).capacity == 8
        monkeypatch.setattr(build_module, "TABLE_NODES_MAX", 0)
        assert PairTable.for_batch(index.graph, index.kernel, 8) is None

    def test_bounded_by_table_nodes_max(self, monkeypatch):
        monkeypatch.setattr(build_module, "TABLE_NODES_MAX", 32)
        index = HnswIndex(DIM, HnswParams(m=4))
        graph, kernel = index.graph, index.kernel
        assert PairTable.for_batch(graph, kernel, 500).capacity == 32
        for vector in vectors(32, 8):
            graph.add_node(vector, 0)
        assert PairTable.for_batch(graph, kernel, 500) is None
