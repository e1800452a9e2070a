"""Sharding composes with the comparator indexes.

A realistic migration path mixes systems: a sharded d-HNSW serving hot
traffic while a PQ index answers memory-constrained replicas, both built
from the same corpus with the same global ids.  These tests pin the id
contract across the combination.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ShardedDeployment
from repro.core import DHnswConfig
from repro.pq import PqCodebook, PqRerankIndex


@pytest.fixture(scope="module")
def world(small_dataset, small_config):
    sharded = ShardedDeployment(small_dataset.vectors, small_config,
                                num_shards=2)
    book = PqCodebook(small_dataset.dim, num_subspaces=4, seed=9)
    book.train(small_dataset.vectors)
    pq = PqRerankIndex(book)
    pq.add(small_dataset.vectors)
    return sharded, pq


def test_same_global_ids_across_systems(world, small_dataset):
    sharded, pq = world
    for query in small_dataset.vectors[:10]:
        graph_top = int(sharded.search(query, 1, ef_search=32).ids[0])
        pq_top = int(pq.search(query, 1, rerank=20)[0][0])
        assert graph_top == pq_top  # both self-queries: exact same id


def test_topk_overlap_between_systems(world, small_dataset):
    sharded, pq = world
    overlaps = []
    for query in small_dataset.queries[:10]:
        graph_ids = set(sharded.search_batch(
            query[None], 10, ef_search=48).results[0].ids.tolist())
        pq_ids = set(pq.search(query, 10, rerank=100)[0].tolist())
        overlaps.append(len(graph_ids & pq_ids))
    # Both systems are approximate (sharded probe width, PQ quantization)
    # so require majority agreement, not identity.
    assert np.mean(overlaps) >= 5
