"""In-place node removal: unlink, bridge the holes, renumber.

``HnswIndex.remove`` is what a shadow rebuild runs for every tombstoned
or superseded base id, so its output is serialized, hashed and compared
across worker counts: everything here is checked on structure and on
bytes, and nothing about it may depend on anything but the graph and the
set of dead nodes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hnsw.index import HnswIndex
from repro.hnsw.params import HnswParams
from repro.layout.serializer import deserialize_cluster, serialize_cluster
from tests.hnsw import reference_search

DIM = 8


def vectors(count: int, seed: int, dim: int = DIM) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, dim)).astype(np.float32)


def built(count: int, params: HnswParams, seed: int = 0) -> HnswIndex:
    """An index over ``vectors(count, seed)`` labelled ``1000 + row``."""
    index = HnswIndex(DIM, params)
    index.add(vectors(count, seed), labels=range(1000, 1000 + count))
    return index


def recall_and_evaluations(index: HnswIndex, queries: np.ndarray,
                           ef: int = 32) -> tuple[float, float]:
    """recall@10 against the exact neighbours among the index's own
    vectors, and mean distance evaluations per query."""
    stored = index.graph.vectors
    labels = np.asarray(index.labels)
    index.reset_compute_counter()
    hits = 0
    for query in queries:
        exact = labels[np.argsort(((stored - query) ** 2).sum(axis=1))[:10]]
        hits += len(set(exact.tolist())
                    & set(index.search(query, 10, ef=ef)[0].tolist()))
    return hits / (10 * len(queries)), index.compute_count / len(queries)


class TestRemoveProperties:
    @settings(deadline=None, max_examples=60)
    @given(count=st.integers(min_value=1, max_value=70),
           m=st.integers(min_value=2, max_value=8),
           ef_construction=st.integers(min_value=2, max_value=32),
           seed=st.integers(min_value=0, max_value=2 ** 16),
           data=st.data())
    def test_structure_labels_vectors_and_searches(
            self, count, m, ef_construction, seed, data):
        params = HnswParams(m=m, ef_construction=ef_construction, seed=seed)
        original = built(count, params, seed)
        blob = serialize_cluster(original, 0)
        dead = data.draw(st.sets(st.integers(min_value=0,
                                             max_value=count - 1)))
        survivors = [node for node in range(count) if node not in dead]
        new_id = {old: new for new, old in enumerate(survivors)}

        index, _ = deserialize_cluster(blob, params)
        index.remove(dead)
        graph = index.graph

        graph.check_invariants()
        assert len(index) == len(survivors)
        assert index.labels == [1000 + node for node in survivors]
        assert np.array_equal(graph.vectors,
                              original.graph.vectors[survivors])
        if dead and survivors:  # gathered out of the frozen blob view
            assert graph.vectors.flags.writeable
        for old in survivors:
            before = original.graph.adjacency[old]
            after = graph.adjacency[new_id[old]]
            assert len(after) == len(before)  # levels never change
            for level, neighbors in enumerate(after):
                assert len(neighbors) <= params.max_degree(level)
                # ``check_invariants`` bounds ids by the new count; a
                # removed id would still have to map to some survivor.
                if dead.isdisjoint(before[level]):
                    assert neighbors == [new_id[n] for n in before[level]]
        if original.graph.entry_point not in dead:
            assert graph.entry_point == new_id[original.graph.entry_point]

        if survivors:
            for query in vectors(3, seed + 1):
                assert (index.search_candidates(query, 5, ef=16)
                        == reference_search.search_candidates(
                            index, query, 5, ef=16))

        # A pure function of (graph, dead): equal inputs, equal bytes.
        again, _ = deserialize_cluster(blob, params)
        again.remove(sorted(dead, reverse=True))
        assert serialize_cluster(again, 0) == serialize_cluster(index, 0)


class TestRemoveCases:
    PARAMS = HnswParams(m=6, ef_construction=32, seed=5)

    def test_nothing_to_remove_leaves_the_bytes_alone(self):
        index = built(120, self.PARAMS)
        blob = serialize_cluster(index, 0)
        index.remove([])
        assert serialize_cluster(index, 0) == blob

    def test_out_of_range_ids_are_rejected(self):
        index = built(20, self.PARAMS)
        blob = serialize_cluster(index, 0)
        with pytest.raises(IndexError, match=r"\[20\]"):
            index.remove([3, 20])
        assert serialize_cluster(index, 0) == blob

    def test_the_entry_point_dies(self):
        index = built(200, self.PARAMS)
        graph = index.graph
        entry, top = graph.entry_point, graph.max_level
        peers = [node for node in graph.nodes_at_level(top)
                 if node != entry]
        index.remove([entry])
        graph.check_invariants()
        if peers:  # the lowest-id peer of the same layer takes over
            expected = peers[0] - (peers[0] > entry)
            assert (graph.entry_point, graph.max_level) == (expected, top)
        else:
            assert graph.max_level < top
        assert graph.unreachable() == []

    def test_every_node_of_the_top_layer_dies(self):
        index = built(200, self.PARAMS)
        graph = index.graph
        top = graph.max_level
        assert top >= 1
        index.remove(list(graph.nodes_at_level(top)))
        graph.check_invariants()
        assert graph.max_level == max(map(len, graph.adjacency)) - 1 < top
        assert graph.entry_point == next(graph.nodes_at_level(
            graph.max_level))
        assert index.search(vectors(1, 9)[0], 5)[0].size == 5

    def test_a_hole_deeper_than_one_hop_is_bridged(self):
        """Nodes on a line, each linked to the next: 2's neighbours once
        1 is excluded are all dead, so 1 is bridged through 2 *and* 3 to
        4 — and back."""
        index = HnswIndex(1, HnswParams(m=2, seed=0))
        for position in range(6):
            index.graph.add_node(np.float32([position]), 0)
        for node in range(6):
            index.graph.set_neighbors(
                node, 0, [n for n in (node - 1, node + 1) if 0 <= n < 6])
        index.labels = list(range(6))
        index.remove([2, 3])
        assert index.labels == [0, 1, 4, 5]
        # Re-chosen lists come back closest first.
        assert index.graph.adjacency == [[[1]], [[0, 2]], [[3, 1]], [[2]]]
        assert index.graph.unreachable() == []

    def test_a_dead_neighbourhood_with_nobody_beyond(self):
        """0 <-> 1 <-> 2 loses 1 and 2: 0's list ends up empty, not
        broken."""
        index = HnswIndex(1, HnswParams(m=2, seed=0))
        for position in range(3):
            index.graph.add_node(np.float32([position]), 0)
        for node, neighbors in enumerate(([1], [0, 2], [1])):
            index.graph.set_neighbors(node, 0, neighbors)
        index.labels = [7, 8, 9]
        index.remove([1, 2])
        index.graph.check_invariants()
        assert (index.labels, index.graph.adjacency) == ([7], [[[]]])

    def test_everything_dies_then_add_works(self):
        index = built(50, self.PARAMS)
        index.remove(range(50))
        index.graph.check_invariants()
        assert (len(index), index.labels) == (0, [])
        assert index.graph.vectors.shape == (0, DIM)
        # An emptied cluster serializes and comes back.
        empty, _ = deserialize_cluster(serialize_cluster(index, 3),
                                       self.PARAMS)
        assert len(empty) == 0
        index.add(vectors(30, 2), labels=range(30))
        index.graph.check_invariants()
        labels, distances = index.search(vectors(30, 2)[11], 1)
        assert (labels[0], distances[0]) == (11, 0.0)

    def test_the_compiled_graph_is_dropped(self):
        """A search after ``remove`` returns survivors only — there is no
        derived copy of the graph left to go stale (hence the name)."""
        index = built(80, self.PARAMS)
        removed = index.graph.vectors[[0, 5]].copy()
        for query in removed:  # searched before: found at distance 0
            assert index.search(query, 1)[1][0] == 0.0
        index.remove([0, 5])
        survivors = set(range(1000, 1080)) - {1000, 1005}
        for query in removed:
            labels, distances = index.search(query, 78, ef=78)
            assert set(labels.tolist()) <= survivors
            assert distances[0] > 0.0

    def test_no_random_number_is_drawn(self):
        """A rebuild's appended nodes draw the levels they would have
        drawn had nothing been removed first."""
        index = built(150, self.PARAMS)
        state = index._rng.getstate()
        index.remove(range(0, 150, 7))
        assert index._rng.getstate() == state


class TestReachability:
    @pytest.mark.parametrize("share", [0.05, 0.3, 0.6])
    def test_survivors_stay_reachable(self, share):
        """Cycles of delete-then-append, judged right after each removal
        by the function ``fsck`` warns from.

        Not a law — pruning a list can drop a node's last in-edge, on
        insert as on repair — so this pins a rate: fewer than 1 survivor
        per 1000 removed nodes is newly stranded, which at 5 % a cycle
        (the write path's regime and beyond) means none.
        """
        params = HnswParams(m=8, ef_construction=48, seed=2)
        rng = np.random.default_rng(int(share * 100))
        pool = vectors(200 + 12 * int(200 * share), 4)
        index = HnswIndex(DIM, params)
        index.add(pool[:200], labels=range(200))
        fresh = 200
        stranded = 0
        for _ in range(12):
            before = {index.labels[node]
                      for node in index.graph.unreachable()}
            dead = rng.choice(200, size=int(200 * share), replace=False)
            index.remove(dead.tolist())
            stranded += len({index.labels[node] for node
                             in index.graph.unreachable()} - before)
            index.add(pool[fresh:fresh + len(dead)],
                      labels=range(fresh, fresh + len(dead)))
            fresh += len(dead)
        index.graph.check_invariants()
        assert stranded <= (fresh - 200) // 1000


class TestQualityOverTime:
    def test_thirty_cycles_of_churn_match_a_fresh_build(self):
        """Delete 5 %, append 5 %, thirty times: the repaired graph finds
        what a from-scratch build of the same live set finds, for no more
        distance evaluations."""
        params = HnswParams(m=8, ef_construction=48, seed=1)
        rng = np.random.default_rng(0)
        pool = vectors(600 + 30 * 30, 6)
        index = HnswIndex(DIM, params)
        index.add(pool[:600], labels=range(600))
        fresh = 600
        for _ in range(30):
            index.remove(rng.choice(600, size=30, replace=False).tolist())
            index.add(pool[fresh:fresh + 30],
                      labels=range(fresh, fresh + 30))
            fresh += 30
        index.graph.check_invariants()
        rebuilt = HnswIndex(DIM, params)
        rebuilt.add(pool[index.labels], labels=index.labels)

        queries = vectors(200, 8)
        recall, evaluations = recall_and_evaluations(index, queries)
        want_recall, want_evaluations = recall_and_evaluations(rebuilt,
                                                               queries)
        assert recall >= want_recall - 0.01
        assert evaluations <= 1.05 * want_evaluations
