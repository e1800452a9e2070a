"""Equivalence of the traversal engine with the textbook beam search.

:mod:`repro.hnsw.search` promises *bit-identical* results and *exactly
equal* distance-evaluation counts versus Algorithm 2 as written, with one
memo per walk (``tests/hnsw/reference_search.py``) — the counters drive
every simulated latency in ``benchmarks/results/``, so even an off-by-one
would silently change the paper's reproduced numbers.  These tests fuzz randomized
graphs across beam widths and graph mutations (including
disconnected nodes) on both forms of the engine — distance tables and
hop-by-hop — and assert exact equality, never approximate closeness.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hnsw import index as index_module
from repro.hnsw.graph import LayeredGraph
from repro.hnsw.index import HnswIndex
from repro.hnsw.params import HnswParams
from tests.hnsw import reference_search

#: L2 is the only distance; the parameter keeps the tests' ids.
METRICS = ["l2"]
EF_VALUES = [1, 2, 7, 33]


def build_index(count: int, dim: int = 6, m: int = 4,
                seed: int = 11) -> HnswIndex:
    rng = np.random.default_rng(seed)
    index = HnswIndex(dim, HnswParams(m=m, ef_construction=24, seed=seed))
    index.add((rng.standard_normal((count, dim)) * 4).astype(np.float32))
    return index


def disconnect(index: HnswIndex, node: int) -> None:
    """Strip every edge touching ``node`` (simulates a pruned island)."""
    graph = index.graph
    for level in range(len(graph.adjacency[node])):
        graph.adjacency[node][level] = []
    for other in range(len(graph)):
        if other == node:
            continue
        for level, neighbors in enumerate(graph.adjacency[other]):
            graph.adjacency[other][level] = [
                n for n in neighbors if n != node]


def reference_run(index: HnswIndex, queries: np.ndarray, k: int,
                  ef: int) -> tuple[list, int]:
    index.kernel.reset_counter()
    results = [reference_search.search_candidates(index, query, k, ef)
               for query in queries]
    return results, index.kernel.reset_counter()


class TestEngineEquivalence:
    """Single-query and batch searches versus the oracle."""

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("ef", EF_VALUES)
    def test_results_and_counts_match(self, metric, ef):
        index = build_index(count=90)
        rng = np.random.default_rng(23)
        queries = (rng.standard_normal((12, 6)) * 4).astype(np.float32)
        expected, expected_evals = reference_run(index, queries, 3, ef)

        single = [index.search_candidates(query, 3, ef)
                  for query in queries]
        single_evals = index.kernel.reset_counter()
        assert single == expected
        assert single_evals == expected_evals

        batch = index.search_candidates_batch(queries, 3, ef)
        batch_evals = index.kernel.reset_counter()
        assert batch == expected
        assert batch_evals == expected_evals

    @pytest.mark.parametrize("metric", METRICS)
    def test_on_demand_engine_matches(self, metric, monkeypatch):
        """Force the per-hop form (as used above TABLE_NODES_MAX)."""
        monkeypatch.setattr(index_module, "TABLE_NODES_MAX", 0)
        index = build_index(count=70)
        rng = np.random.default_rng(5)
        queries = (rng.standard_normal((8, 6)) * 4).astype(np.float32)
        expected, expected_evals = reference_run(index, queries, 2, 17)
        got = index.search_candidates_batch(queries, 2, 17)
        got_evals = index.kernel.reset_counter()
        assert got == expected
        assert got_evals == expected_evals

    @pytest.mark.parametrize("ef", EF_VALUES)
    def test_both_forms_credit_each_walk_alike(self, ef, monkeypatch):
        """Walk by walk, the table form credits what the per-hop form
        hands the kernel — and the two return the same candidates."""
        index = build_index(count=120, m=3)
        rng = np.random.default_rng(31)
        queries = (rng.standard_normal((10, 6)) * 4).astype(np.float32)

        def walks():
            out = []
            for query in queries:
                found = index.search_candidates(query, 3, ef)
                out.append((found, index.kernel.reset_counter()))
            return out

        index.kernel.reset_counter()
        table = walks()
        monkeypatch.setattr(index_module, "TABLE_NODES_MAX", 0)
        assert walks() == table

    @pytest.mark.parametrize("disconnected", [(), (13, 47)])
    def test_no_walk_credits_more_than_the_graph(self, disconnected):
        """A walk scores a node once: a beam wide enough to take the whole
        graph credits at most one evaluation per node, the seed included,
        however often the descent met a node before."""
        index = build_index(count=60, m=3)
        for node in disconnected:
            disconnect(index, node)
        assert index.graph.max_level > 0
        rng = np.random.default_rng(17)
        index.kernel.reset_counter()
        for query in (rng.standard_normal((12, 6)) * 4).astype(np.float32):
            index.search_candidates(query, 3, len(index))
            assert index.kernel.reset_counter() <= len(index)

    def test_disconnected_nodes(self):
        index = build_index(count=60)
        disconnect(index, 13)
        disconnect(index, 47)
        rng = np.random.default_rng(3)
        queries = (rng.standard_normal((10, 6)) * 4).astype(np.float32)
        for ef in EF_VALUES:
            expected, expected_evals = reference_run(index, queries, 2, ef)
            got = index.search_candidates_batch(queries, 2, ef)
            got_evals = index.kernel.reset_counter()
            assert got == expected
            assert got_evals == expected_evals

    def test_single_node_graph(self):
        index = build_index(count=1)
        query = np.ones(6, dtype=np.float32)
        expected, expected_evals = reference_run(index, query[None], 1, 4)
        got = [index.search_candidates(query, 1, 4)]
        assert got == expected
        assert index.kernel.reset_counter() == expected_evals

    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_fuzz_equivalence(self, data):
        count = data.draw(st.integers(min_value=1, max_value=80))
        m = data.draw(st.integers(min_value=2, max_value=8))
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 16))
        ef = data.draw(st.sampled_from(EF_VALUES))
        k = data.draw(st.integers(min_value=1, max_value=5))
        index = build_index(count=count, m=m, seed=seed)
        if count > 4 and data.draw(st.booleans()):
            disconnect(index, data.draw(
                st.integers(min_value=0, max_value=count - 1)))
        rng = np.random.default_rng(seed + 1)
        queries = (rng.standard_normal((5, 6)) * 4).astype(np.float32)
        expected, expected_evals = reference_run(index, queries, k, ef)
        single = [index.search_candidates(query, k, ef)
                  for query in queries]
        single_evals = index.kernel.reset_counter()
        batch = index.search_candidates_batch(queries, k, ef)
        batch_evals = index.kernel.reset_counter()
        assert single == expected
        assert batch == expected
        assert single_evals == expected_evals
        assert batch_evals == expected_evals


class TestPerRowBeams:
    """A batch given one beam per row searches each row as it would be
    searched alone at its beam: the serving loop hands a cluster's rows
    their probe ranks' beams in one call, and the counters it charges
    must not depend on which rows share the call."""

    @pytest.mark.parametrize("form", ["table", "hop"])
    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_each_row_is_its_search_alone(self, form, data):
        count = data.draw(st.integers(min_value=1, max_value=90))
        m = data.draw(st.integers(min_value=2, max_value=8))
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 16))
        k = data.draw(st.integers(min_value=1, max_value=5))
        efs = data.draw(st.lists(st.integers(min_value=1, max_value=40),
                                 min_size=1, max_size=8))
        index = build_index(count=count, m=m, seed=seed)
        rng = np.random.default_rng(seed + 1)
        queries = (rng.standard_normal((len(efs), 6)) * 4).astype(
            np.float32)
        with pytest.MonkeyPatch.context() as patch:
            calls = engine_calls(patch)
            if form == "hop":
                patch.setattr(index_module, "TABLE_NODES_MAX", 0)
            alone = []
            for query, ef in zip(queries, efs):
                evaluations: list[int] = []
                found, = index.search_candidates_batch(query[None], k, ef,
                                                       evaluations)
                alone.append((found, evaluations[0]))
            evaluations = []
            batch = index.search_candidates_batch(queries, k, efs,
                                                  evaluations)
        assert list(zip(batch, evaluations)) == alone
        assert set(calls) == {"search_layer" if form == "hop"
                              else "search_layer_table"}

    def test_beams_below_k_are_raised_to_k(self):
        index = build_index(count=50)
        queries = np.ones((2, 6), dtype=np.float32)
        assert (index.search_candidates_batch(queries, 4, [1, 2])
                == index.search_candidates_batch(queries, 4, 4))

    def test_one_beam_per_row(self):
        index = build_index(count=20)
        with pytest.raises(ValueError, match="3 queries but 2 beams"):
            index.search_candidates_batch(np.ones((3, 6), np.float32), 1,
                                          [4, 4])


def engine_calls(monkeypatch) -> list[str]:
    """Record which form of the beam search ``HnswIndex`` reaches."""
    calls: list[str] = []
    for name in ("search_layer", "search_layer_table"):
        inner = getattr(index_module, name)

        def spy(*args, _inner=inner, _name=name):
            calls.append(_name)
            return _inner(*args)

        monkeypatch.setattr(index_module, name, spy)
    return calls


class TestCsrGraphStructure:
    """What is left of the compiled graph's contract now that the
    layered graph is searched directly (class name kept for its ids)."""

    def test_mutation_invalidates_compilation(self):
        """Nothing is derived from the graph, so nothing goes stale: a
        node added after a search is found by the next one."""
        index = build_index(count=10)
        far = np.full(6, 50.0, dtype=np.float32)
        assert index.search(far, 1)[0][0] != 10
        index.add_one(far)
        labels, dists = index.search(far, 1)
        assert (labels[0], dists[0]) == (10, 0.0)

    @pytest.mark.parametrize("edit", ["set_neighbors", "add_edge"])
    def test_direct_graph_edits_need_no_invalidation(self, edit):
        """The parent's foot-gun: editing ``index.graph`` behind a
        searched index left a stale compiled copy unless the caller
        remembered ``invalidate_compiled()``."""
        index = build_index(count=60)
        disconnect(index, 13)
        target = index.graph.vector(13).copy()
        assert 13 not in {node for _, node
                          in index.search_candidates(target, 5, 60)}
        entry = index.graph.entry_point
        if edit == "set_neighbors":
            index.graph.set_neighbors(
                entry, 0, index.graph.neighbors(entry, 0) + [13])
        else:
            index.graph.add_edge(entry, 13, 0)
        assert index.search_candidates(target, 5, 60)[0] == (0.0, 13)

    def test_table_mode_gating(self, monkeypatch):
        """Distance tables serve graphs up to ``TABLE_NODES_MAX`` nodes;
        larger graphs evaluate hop by hop."""
        calls = engine_calls(monkeypatch)
        query = np.ones(6, dtype=np.float32)
        index = build_index(count=10)
        monkeypatch.setattr(index_module, "TABLE_NODES_MAX", 10)
        index.search_candidates_batch(query[None], 1, 4)
        monkeypatch.setattr(index_module, "TABLE_NODES_MAX", 9)
        index.search_candidates_batch(query[None], 1, 4)
        assert calls == ["search_layer_table", "search_layer"]

    def test_searches_leave_no_trace_in_the_pickle(self):
        """Traversal state is neither pickled nor shipped: the bytes a
        search worker would receive do not depend on what was searched."""
        index = build_index(count=40)
        before = pickle.dumps(index)
        evaluations = index.kernel.num_evaluations
        rng = np.random.default_rng(1)
        for query in rng.standard_normal((100, 6)).astype(np.float32):
            index.search_candidates(query, 3, 12)
        index.kernel.num_evaluations = evaluations  # counted, not scratch
        assert pickle.dumps(index) == before
        restored = pickle.loads(before)
        assert restored.graph.acquire_visited()[1] == 1
        query = np.ones(6, dtype=np.float32)
        assert restored.search_candidates(query, 1, 4) == \
            index.search_candidates(query, 1, 4)


class TestVisitedPool:
    """The graph's epoch-tagged visited list (class name kept for its
    ids: the pool is part of ``LayeredGraph`` now)."""

    def test_epochs_isolate_traversals(self):
        graph = build_index(count=4).graph
        tags, epoch = graph.acquire_visited()
        assert len(tags) == 4
        tags[2] = epoch
        fresh_tags, fresh_epoch = graph.acquire_visited()
        assert fresh_tags is tags
        assert fresh_epoch != epoch
        assert all(tag != fresh_epoch for tag in tags)

    def test_empty_graph_pool(self):
        graph = LayeredGraph(6)
        tags, epoch = graph.acquire_visited()
        assert (tags, epoch) == ([], 1)
        graph.add_node(np.zeros(6, dtype=np.float32), 0)
        grown, _ = graph.acquire_visited()
        assert grown is tags and len(grown) == 1

    def test_tags_outlive_renumbering(self):
        """Tags written before a ``remove`` renumbers the survivors, or
        beyond a graph that shrank, belong to retired epochs: searches of
        the shrunk and regrown graph still match the oracle."""
        index = build_index(count=60)
        rng = np.random.default_rng(9)
        queries = (rng.standard_normal((6, 6)) * 4).astype(np.float32)
        index.search_candidates_batch(queries, 3, 33)
        index.remove(range(0, 60, 3))
        for grow in (0, 45):
            if grow:
                index.add((rng.standard_normal((grow, 6)) * 4)
                          .astype(np.float32))
            expected, expected_evals = reference_run(index, queries, 3, 33)
            assert index.search_candidates_batch(queries, 3, 33) == expected
            assert index.kernel.reset_counter() == expected_evals
