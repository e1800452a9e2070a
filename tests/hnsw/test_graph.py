"""Structural tests for :class:`LayeredGraph`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DimensionMismatchError
from repro.hnsw.graph import LayeredGraph


def test_empty_graph_state():
    graph = LayeredGraph(4)
    assert len(graph) == 0
    assert graph.entry_point is None
    assert graph.max_level == -1
    graph.check_invariants()


def test_invalid_dim():
    with pytest.raises(ValueError, match="dim must be positive"):
        LayeredGraph(0)


def test_add_node_assigns_dense_ids():
    graph = LayeredGraph(2)
    ids = [graph.add_node([i, i], level=0) for i in range(5)]
    assert ids == [0, 1, 2, 3, 4]
    assert len(graph) == 5


def test_first_node_becomes_entry_point():
    graph = LayeredGraph(2)
    graph.add_node([0, 0], level=0)
    assert graph.entry_point == 0
    assert graph.max_level == 0


def test_higher_level_node_takes_over_entry():
    graph = LayeredGraph(2)
    graph.add_node([0, 0], level=0)
    graph.add_node([1, 1], level=3)
    assert graph.entry_point == 1
    assert graph.max_level == 3


def test_lower_level_node_keeps_entry():
    graph = LayeredGraph(2)
    graph.add_node([0, 0], level=2)
    graph.add_node([1, 1], level=1)
    assert graph.entry_point == 0


def test_vector_storage_and_growth():
    graph = LayeredGraph(3)
    data = np.arange(300, dtype=np.float32).reshape(100, 3)
    for row in data:
        graph.add_node(row, level=0)
    np.testing.assert_array_equal(graph.vectors, data)


def test_vector_out_of_range():
    graph = LayeredGraph(2)
    graph.add_node([0, 0], level=0)
    with pytest.raises(IndexError):
        graph.vector(1)
    with pytest.raises(IndexError):
        graph.vector(-1)


def test_dim_mismatch_on_add():
    graph = LayeredGraph(3)
    with pytest.raises(DimensionMismatchError):
        graph.add_node([1.0, 2.0], level=0)


def test_negative_level_rejected():
    graph = LayeredGraph(2)
    with pytest.raises(ValueError, match="level"):
        graph.add_node([0, 0], level=-1)


def test_level_of_and_layer_membership():
    graph = LayeredGraph(2)
    graph.add_node([0, 0], level=2)
    graph.add_node([1, 1], level=0)
    assert graph.level_of(0) == 2
    assert graph.level_of(1) == 0
    assert list(graph.nodes_at_level(1)) == [0]
    assert sorted(graph.nodes_at_level(0)) == [0, 1]


def test_edges_and_neighbor_replacement():
    graph = LayeredGraph(2)
    graph.add_node([0, 0], level=1)
    graph.add_node([1, 1], level=1)
    graph.add_edge(0, 1, level=1)
    assert graph.neighbors(0, 1) == [1]
    graph.set_neighbors(0, 1, [])
    assert graph.neighbors(0, 1) == []


def test_invariants_catch_self_loop():
    graph = LayeredGraph(2)
    graph.add_node([0, 0], level=0)
    graph.add_edge(0, 0, level=0)
    with pytest.raises(AssertionError, match="self-loop"):
        graph.check_invariants()


def test_invariants_catch_duplicate_edge():
    graph = LayeredGraph(2)
    graph.add_node([0, 0], level=0)
    graph.add_node([1, 1], level=0)
    graph.add_edge(0, 1, level=0)
    graph.add_edge(0, 1, level=0)
    with pytest.raises(AssertionError, match="duplicate"):
        graph.check_invariants()


def test_invariants_catch_layer_violation():
    graph = LayeredGraph(2)
    graph.add_node([0, 0], level=1)
    graph.add_node([1, 1], level=0)
    graph.add_edge(0, 1, level=1)  # node 1 does not reach layer 1
    with pytest.raises(AssertionError, match="absent from layer"):
        graph.check_invariants()


def test_unreachable_walks_one_layer_from_the_entry_point():
    graph = LayeredGraph(2)
    assert graph.unreachable() == []  # nothing to reach
    graph.add_node([0, 0], level=1)   # entry point
    for position in range(1, 5):
        graph.add_node([position, 0], level=0)
    graph.add_node([5, 0], level=1)
    graph.add_edge(0, 1, level=0)
    graph.add_edge(1, 2, level=0)
    graph.add_edge(3, 2, level=0)     # 3 and 4 point in, nobody points
    graph.add_edge(4, 3, level=0)     # at them; 5 is on its own
    assert graph.unreachable() == [3, 4, 5]
    assert graph.unreachable(level=1) == [5]
    graph.add_edge(2, 4, level=0)
    graph.add_edge(0, 5, level=1)
    assert graph.unreachable() == [5]
    assert graph.unreachable(level=1) == graph.unreachable(level=2) == []
    graph.check_invariants()          # reachability is not an invariant


def test_memory_bytes_counts_vectors_and_edges():
    graph = LayeredGraph(4)
    graph.add_node([0, 0, 0, 0], level=0)
    graph.add_node([1, 1, 1, 1], level=0)
    graph.add_edge(0, 1, level=0)
    assert graph.memory_bytes() == 2 * 4 * 4 + 4
