"""The vectorized top-k merger against the dict-accumulator oracle.

PR 4 replaced the per-query ``dict[int, float]`` + ``heapq.nsmallest``
merge with bounded NumPy buffers compacted via ``argpartition``
(:mod:`repro.core.merge`).  These tests pin the equivalence: for any chunk
sequence — duplicate gids across chunks, exact distance ties between
different gids, empty chunks, tiny and large batches — ``TopKMerger``
returns bit-identical ids and distances to ``merge_reference`` (the old
implementation kept verbatim as the oracle).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.merge import TopKMerger, select_topk
from tests.core.reference_merge import merge_reference


def run_both(num_queries, chunks, k, filter_fn=None, threshold=None):
    merger = TopKMerger(num_queries, k, prune=filter_fn is None,
                        compact_threshold=threshold)
    for query_index, gids, dists in chunks:
        merger.add(query_index, gids, dists)
    got = [merger.top(q, k, filter_fn) for q in range(num_queries)]
    want = merge_reference(num_queries, chunks, k, filter_fn)
    return got, want


def assert_identical(got, want):
    for (got_ids, got_dists), (want_ids, want_dists) in zip(got, want):
        np.testing.assert_array_equal(got_ids, want_ids)
        np.testing.assert_array_equal(got_dists, want_dists)
        assert got_ids.dtype == np.int64
        assert got_dists.dtype == np.float32


# Small gid range + quantized distances force duplicate gids and exact
# distance ties, the two cases where tie-breaking order matters.
chunk = st.tuples(
    st.integers(min_value=0, max_value=3),                   # query index
    st.lists(st.integers(min_value=0, max_value=15),         # gids
             min_size=0, max_size=12),
)
chunks_strategy = st.lists(chunk, min_size=0, max_size=12)


@settings(max_examples=200, deadline=None)
@given(raw=chunks_strategy,
       k=st.integers(min_value=1, max_value=8),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       threshold=st.one_of(st.none(), st.integers(min_value=1,
                                                  max_value=16)))
def test_merger_equals_dict_reference(raw, k, seed, threshold):
    rng = np.random.default_rng(seed)
    chunks = [(q, np.array(gids, dtype=np.int64),
               # distances quantized to 1/4 so ties actually happen
               np.round(rng.uniform(0, 4, len(gids)) * 4) / 4)
              for q, gids in raw]
    got, want = run_both(4, chunks, k, threshold=threshold)
    assert_identical(got, want)


@settings(max_examples=100, deadline=None)
@given(raw=chunks_strategy,
       k=st.integers(min_value=1, max_value=8),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_merger_equals_reference_with_filter(raw, k, seed):
    rng = np.random.default_rng(seed)
    chunks = [(q, np.array(gids, dtype=np.int64),
               np.round(rng.uniform(0, 4, len(gids)) * 4) / 4)
              for q, gids in raw]
    got, want = run_both(4, chunks, k, filter_fn=lambda gid: gid % 2 == 0)
    assert_identical(got, want)


class TestEdgeCases:
    def test_duplicate_gid_keeps_min_distance(self):
        merger = TopKMerger(1, 3)
        merger.add(0, [7, 7, 7], [3.0, 1.0, 2.0])
        ids, dists = merger.top(0)
        assert ids.tolist() == [7]
        assert dists.tolist() == [1.0]

    def test_distance_ties_break_by_gid(self):
        merger = TopKMerger(1, 2)
        merger.add(0, [9, 3, 5], [1.0, 1.0, 1.0])
        ids, _ = merger.top(0)
        assert ids.tolist() == [3, 5]   # heapq tie order: (dist, gid)

    def test_empty_query_returns_empty(self):
        merger = TopKMerger(2, 4)
        merger.add(1, [1], [0.5])
        ids, dists = merger.top(0)
        assert ids.size == 0 and dists.size == 0

    def test_compaction_never_drops_a_winner(self):
        """With threshold=1 every add compacts; a later better distance
        for a retained gid must still win."""
        merger = TopKMerger(1, 2, compact_threshold=1)
        merger.add(0, [1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0])
        merger.add(0, [2], [0.5])
        ids, dists = merger.top(0)
        assert ids.tolist() == [2, 1]
        assert dists.tolist() == [0.5, 1.0]

    def test_top_is_idempotent(self):
        merger = TopKMerger(1, 2)
        merger.add(0, [4, 1, 2], [0.3, 0.1, 0.2])
        first = merger.top(0)
        second = merger.top(0)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_validation(self):
        with pytest.raises(ValueError):
            TopKMerger(-1, 3)
        with pytest.raises(ValueError):
            TopKMerger(1, 0)
        with pytest.raises(ValueError):
            TopKMerger(1, 1, compact_threshold=0)
        merger = TopKMerger(1, 1)
        with pytest.raises(ValueError):
            merger.add(0, [1, 2], [0.5])


class TestSelectTopk:
    def test_matches_full_sort(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            gids = rng.permutation(n).astype(np.int64)
            dists = np.round(rng.uniform(0, 2, n) * 8) / 8
            k = int(rng.integers(1, n + 1))
            got_g, got_d = select_topk(gids, dists, k)
            order = np.lexsort((gids, dists))[:k]
            np.testing.assert_array_equal(got_g, gids[order])
            np.testing.assert_array_equal(got_d, dists[order])

    def test_k_larger_than_n(self):
        gids = np.array([3, 1], dtype=np.int64)
        dists = np.array([0.2, 0.1])
        got_g, got_d = select_topk(gids, dists, 10)
        assert got_g.tolist() == [1, 3]
        assert got_d.tolist() == [0.1, 0.2]
