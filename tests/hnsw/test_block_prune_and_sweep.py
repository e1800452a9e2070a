"""The per-level block prune and the reach sweep build the textbook graph.

``insert`` prunes every overfull list of a level from one gathered block
of the batch's pair table (``build._prune_block``), and searches a graph
no larger than ``ef_construction`` by sweeping what its seeds reach
(``build._sweep_layer_table``) instead of beam-searching it.  Both must
serialize the blobs, and credit the evaluations, of the textbook loops in
``tests/hnsw/reference_build.py`` — every comparison is ``==`` — and the
spies below make sure each case really ran the path it is about.
"""

from __future__ import annotations

import copy
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hnsw.build as build_module
from repro.core.meta_index import MetaHnsw
from repro.hnsw.distance import DistanceKernel
from repro.hnsw.graph import LayeredGraph
from repro.hnsw.index import HnswIndex
from repro.hnsw.params import HnswParams
from repro.hnsw.search import search_layer_table
from repro.layout.serializer import deserialize_cluster, serialize_cluster
from tests.hnsw.test_construction_equivalence import DIM, grow, vectors


class Spy:
    """Counts the calls each construction path received."""

    def __init__(self, patch: pytest.MonkeyPatch) -> None:
        # ``columns``: overfull lists pruned on columns.
        self.calls = {"block": 0, "sweep": 0, "beam": 0, "columns": 0}
        for name, key in (("_prune_block", "block"),
                          ("_prune_columns", "columns"),
                          ("_sweep_layer_table", "sweep"),
                          ("search_layer_table", "beam")):
            patch.setattr(build_module, name,
                          self._counted(getattr(build_module, name), key))

    @property
    def columns(self) -> int:
        return self.calls["columns"]

    def _counted(self, function, key):
        def counted(*args, **kwargs):
            self.calls[key] += 1
            return function(*args, **kwargs)
        return counted


def spied(make_index, rows, path, forced_levels) -> tuple[tuple, Spy]:
    with pytest.MonkeyPatch.context() as patch:
        spy = Spy(patch)
        return grow(make_index(), rows, path, forced_levels), spy


def assert_matches_reference(make_index, rows, forced_levels=None) -> Spy:
    """A batch builds the textbook loops' blob and count; returns the
    batch's spy."""
    batch, spy = spied(make_index, rows, "table", forced_levels)
    reference, reference_spy = spied(make_index, rows, "reference",
                                     forced_levels)
    assert batch == reference
    # The oracle runs on neither new path.
    assert reference_spy.calls["block"] == reference_spy.calls["sweep"] == 0
    return spy


class TestAgainstReference:
    @settings(deadline=None, max_examples=40)
    @given(count=st.integers(min_value=1, max_value=120),
           m=st.integers(min_value=2, max_value=12),
           ef_construction=st.integers(min_value=1, max_value=60),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_fuzz(self, count, m, ef_construction, seed):
        params = HnswParams(m=m, ef_construction=ef_construction, seed=seed)
        assert_matches_reference(lambda: HnswIndex(DIM, params),
                                 vectors(count, seed))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_narrow_lists_prune_on_every_layer(self, m):
        """Small ``m`` means tall graphs whose upper lists overflow."""
        params = HnswParams(m=m, ef_construction=24, seed=m)
        spy = assert_matches_reference(lambda: HnswIndex(DIM, params),
                                       vectors(200, m))
        assert spy.calls["block"] > 0
        assert spy.calls["sweep"] > 0 and spy.calls["beam"] > 0

    def test_duplicate_vectors(self):
        """Exact copies tie on distance; ``(distance, node)`` decides."""
        rows = np.repeat(vectors(30, 11), 5, axis=0)
        np.random.default_rng(0).shuffle(rows)
        params = HnswParams(m=4, ef_construction=40, seed=2)
        spy = assert_matches_reference(lambda: HnswIndex(DIM, params), rows)
        assert spy.calls["block"] > 0 and spy.calls["sweep"] > 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_equidistant_candidates(self, seed):
        """Points of a small integer lattice: distinct candidates tie on
        distance to an owner all the time, and the node id breaks it."""
        rows = np.random.default_rng(seed).integers(
            0, 3, size=(150, DIM)).astype(np.float32)
        params = HnswParams(m=4, ef_construction=24, seed=seed)
        spy = assert_matches_reference(lambda: HnswIndex(DIM, params), rows)
        assert spy.calls["block"] > 0

    @pytest.mark.parametrize("ef_construction", [16, 47])
    def test_crossing_the_beam_width(self, ef_construction):
        """Inserts up to ``len(graph) == ef_construction`` sweep, the
        rest beam-search."""
        params = HnswParams(m=6, ef_construction=ef_construction, seed=9)
        spy = assert_matches_reference(lambda: HnswIndex(DIM, params),
                                       vectors(ef_construction + 30, 3))
        assert spy.calls["sweep"] >= ef_construction
        assert spy.calls["beam"] > 0

    def test_lists_wider_than_one_mask_word(self):
        """``m = 32``: a layer-0 list overflows at 65 candidates."""
        params = HnswParams(m=32, ef_construction=40, seed=1)
        spy = assert_matches_reference(lambda: HnswIndex(DIM, params),
                                       vectors(160, 5))
        assert spy.calls["block"] > 0

    def test_meta_hnsw_forced_levels(self):
        params = HnswParams(m=4, ef_construction=32, max_level=2, seed=6)
        rows = vectors(90, 5)
        levels = MetaHnsw._layer_assignment(90, params.m)
        spy = assert_matches_reference(lambda: HnswIndex(DIM, params), rows,
                                       forced_levels=levels)
        assert spy.calls["block"] > 0 and spy.calls["sweep"] > 0

    def test_appends_onto_a_deserialized_graph(self):
        """Base nodes get pair rows up front: every overfull list the
        appends make, base nodes' lists included, prunes from a block,
        none on columns, into the textbook loops' blob and count."""
        params = HnswParams(m=4, ef_construction=48, seed=4)
        base = HnswIndex(DIM, params)
        base.add(vectors(30, 2))
        blob = serialize_cluster(base, 0)
        spy = assert_matches_reference(
            lambda: deserialize_cluster(blob, params)[0], vectors(150, 3))
        assert spy.columns == 0
        assert spy.calls["block"] > 0 and spy.calls["sweep"] > 0

    def test_without_a_table_lists_prune_on_columns(self, monkeypatch):
        """Past ``TABLE_NODES_MAX`` there is no table: overfull lists
        prune on columns, into the textbook loops' blob and count."""
        monkeypatch.setattr(build_module, "TABLE_NODES_MAX", 0)
        params = HnswParams(m=4, ef_construction=48, seed=4)
        spy = assert_matches_reference(lambda: HnswIndex(DIM, params),
                                       vectors(120, 2))
        assert spy.columns > 0 and spy.calls["block"] == 0


class TestSweep:
    """``_sweep_layer_table`` is the beam whenever the beam cannot fill."""

    @staticmethod
    def graph_with_stranded_nodes(seed: int) -> LayeredGraph:
        index = HnswIndex(DIM, HnswParams(m=3, ef_construction=12,
                                          seed=seed))
        index.add(vectors(60, seed))
        graph = index.graph
        rng = random.Random(seed)
        for level in range(graph.max_level + 1):
            members = [node for node in graph.nodes_at_level(level)
                       if node != graph.entry_point]
            for stranded in rng.sample(members, min(3, len(members))):
                for node in graph.nodes_at_level(level):
                    listed = graph.neighbors(node, level)
                    if stranded in listed:
                        listed.remove(stranded)
        assert graph.unreachable(0)
        return graph

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_beam_on_every_level(self, seed):
        graph = self.graph_with_stranded_nodes(seed)
        kernel = DistanceKernel(DIM)
        query = vectors(1, 100 + seed)[0]
        table = kernel.l2_table(query, graph.vectors).tolist()
        entry = graph.entry_point
        seeds = [(kernel.one(query, graph.vector(entry)), entry)]
        for level in range(graph.max_level, -1, -1):
            kernel.reset_counter()
            beam = search_layer_table(graph, kernel, table, seeds,
                                      len(graph), level)
            beam_count = kernel.reset_counter()
            swept = build_module._sweep_layer_table(graph, kernel, table,
                                                    seeds, level)
            assert swept == beam
            assert kernel.reset_counter() == beam_count
            seeds = beam

    def test_inserts_into_a_graph_with_stranded_nodes(self):
        graph = self.graph_with_stranded_nodes(7)
        params = HnswParams(m=3, ef_construction=80, seed=7)

        def make_index():
            index = HnswIndex(DIM, params)
            index.graph = copy.deepcopy(graph)
            index.labels = list(range(len(graph)))
            return index

        spy = assert_matches_reference(make_index, vectors(15, 8))
        assert spy.calls["sweep"] > 0
