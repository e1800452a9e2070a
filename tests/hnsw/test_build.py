"""Construction internals: level sampling, neighbour heuristic, insertion."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hnsw.build import (insert, remove_nodes, sample_level,
                              select_neighbors_heuristic)
from repro.hnsw.distance import DistanceKernel
from repro.hnsw.graph import LayeredGraph
from repro.hnsw.index import HnswIndex
from repro.hnsw.params import HnswParams
from tests.hnsw.reference_build import use_reference_construction


@pytest.fixture()
def reference_construction(monkeypatch):
    """Run the enclosed code on the textbook loops."""
    use_reference_construction(monkeypatch)


class TestSampleLevel:
    def test_distribution_decays_geometrically(self):
        rng = random.Random(0)
        params = HnswParams(m=16)
        levels = [sample_level(rng, params) for _ in range(20_000)]
        count_l0 = levels.count(0)
        count_l1 = levels.count(1)
        # P(level >= 1) = 1/m, so L0 should be ~ (m-1) * L1-and-above.
        assert count_l0 > 10 * count_l1

    def test_max_level_cap(self):
        rng = random.Random(1)
        params = HnswParams(m=2, max_level=2)  # m=2 gives tall levels
        levels = [sample_level(rng, params) for _ in range(5000)]
        assert max(levels) == 2

    def test_nonnegative(self):
        rng = random.Random(2)
        params = HnswParams(m=4)
        assert all(sample_level(rng, params) >= 0 for _ in range(1000))


class TestNeighborHeuristic:
    def setup_method(self):
        self.graph = LayeredGraph(2)
        self.kernel = DistanceKernel(2)

    def _add(self, x, y, level=0):
        return self.graph.add_node([x, y], level)

    def test_caps_at_m(self):
        nodes = [self._add(i, 0) for i in range(10)]
        candidates = [(float(i * i), node) for i, node in enumerate(nodes)]
        selected = select_neighbors_heuristic(
            self.graph, self.kernel, candidates, m=3)
        assert len(selected) <= 3

    def test_prefers_diverse_directions(self):
        # Query at origin; two tight candidates east, one candidate north.
        east1 = self._add(1.0, 0.0)
        east2 = self._add(1.1, 0.0)
        north = self._add(0.0, 1.2)
        candidates = [(1.0, east1), (1.21, east2), (1.44, north)]
        selected = select_neighbors_heuristic(
            self.graph, self.kernel, candidates, m=2)
        # east2 is closer to east1 than to the query -> pruned in favour
        # of the northern direction.
        assert selected == [east1, north]

    def test_keep_pruned_backfills(self):
        east1 = self._add(1.0, 0.0)
        east2 = self._add(1.1, 0.0)
        candidates = [(1.0, east1), (1.21, east2)]
        selected = select_neighbors_heuristic(
            self.graph, self.kernel, candidates, m=2)
        assert selected == [east1, east2]

    def test_m_zero_returns_empty(self):
        node = self._add(0.0, 0.0)
        assert select_neighbors_heuristic(
            self.graph, self.kernel, [(0.0, node)], m=0) == []


class TestExtendCandidatesOwner:
    """A node is its own neighbours' neighbour: the list a removal
    repairs is re-chosen from the survivors its dead neighbours lead to,
    and the node itself must never be one of them (self-loop)."""

    def _repair_owner(self) -> list[int]:
        graph = LayeredGraph(2)
        kernel = DistanceKernel(2)
        owner = graph.add_node([0.0, 0.0], 0)
        dead = graph.add_node([1.0, 0.0], 0)
        peer = graph.add_node([2.0, 0.0], 0)
        for a, b in ((owner, dead), (dead, peer)):
            graph.add_edge(a, b, 0)
            graph.add_edge(b, a, 0)
        graph.entry_point, graph.max_level = owner, 0
        assert remove_nodes(graph, kernel, {dead},
                            HnswParams(m=4)) == [owner, peer]
        graph.check_invariants()
        return graph.neighbors(0, 0)

    def test_owner_is_never_its_own_extension(self):
        assert self._repair_owner() == [1]  # the peer, renumbered

    def test_reference_path_agrees(self, reference_construction):
        assert self._repair_owner() == [1]


class TestVectorizedEquivalence:
    """The vectorized construction path is bit-identical to the loops,
    whether a batch's selector reads the pair table or the einsum column
    of one-at-a-time inserts."""

    # The ``Metric.L2-`` prefix of the ids is kept from when other
    # distances were parametrized here too.
    @pytest.mark.parametrize("batched", [False, True],
                             ids=["Metric.L2-False", "Metric.L2-True"])
    def test_graphs_and_counts_match(self, batched):
        generator = np.random.default_rng(11)
        data = generator.standard_normal((180, 12)).astype(np.float32)
        params = HnswParams(m=6, ef_construction=40, seed=5)

        def run():
            index = HnswIndex(12, params)
            if batched:
                index.add(data)
            else:
                for vector in data:
                    index.add_one(vector)
            return index

        fast = run()
        with pytest.MonkeyPatch.context() as patch:
            use_reference_construction(patch)
            reference = run()
        assert fast.graph.adjacency == reference.graph.adjacency
        assert fast.graph.entry_point == reference.graph.entry_point
        assert fast.graph.max_level == reference.graph.max_level
        assert np.array_equal(fast.graph.vectors, reference.graph.vectors)
        assert (fast.kernel.num_evaluations
                == reference.kernel.num_evaluations)


class TestInsert:
    def _build(self, count: int, dim: int, params: HnswParams,
               seed: int = 0) -> LayeredGraph:
        generator = np.random.default_rng(seed)
        graph = LayeredGraph(dim)
        kernel = DistanceKernel(dim)
        rng = random.Random(seed)
        for vector in generator.standard_normal((count, dim)):
            insert(graph, kernel, vector.astype(np.float32), params, rng)
        return graph

    def test_structural_invariants_hold(self):
        params = HnswParams(m=6, ef_construction=40)
        graph = self._build(300, 8, params)
        graph.check_invariants()

    def test_degree_bounds_respected(self):
        params = HnswParams(m=5, ef_construction=40)
        graph = self._build(400, 6, params)
        for node in range(len(graph)):
            for level in range(graph.level_of(node) + 1):
                bound = params.max_degree(level)
                assert len(graph.neighbors(node, level)) <= bound

    def test_forced_level(self):
        params = HnswParams(m=4)
        graph = LayeredGraph(2)
        kernel = DistanceKernel(2)
        rng = random.Random(0)
        insert(graph, kernel, np.zeros(2, dtype=np.float32), params, rng,
               forced_level=5)
        assert graph.level_of(0) == 5
        assert graph.max_level == 5

    def test_connectivity_layer0(self):
        """Every node must be reachable from the entry point on layer 0."""
        params = HnswParams(m=6, ef_construction=50)
        graph = self._build(200, 4, params)
        seen = {graph.entry_point}
        frontier = [graph.entry_point]
        while frontier:
            node = frontier.pop()
            for neighbor in graph.neighbors(node, 0):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        assert len(seen) == len(graph)

    @settings(max_examples=10, deadline=None)
    @given(count=st.integers(min_value=1, max_value=60),
           seed=st.integers(min_value=0, max_value=10))
    def test_insert_never_corrupts_structure(self, count, seed):
        params = HnswParams(m=4, ef_construction=16)
        graph = self._build(count, 3, params, seed=seed)
        graph.check_invariants()
        assert len(graph) == count
