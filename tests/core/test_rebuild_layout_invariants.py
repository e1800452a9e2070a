"""Layout invariants across repeated rebuild churn.

Rebuilds relocate groups; after arbitrary churn the remote layout must
still satisfy every structural property the fast path assumes: aligned
tail counters, in-bounds extents, recyclable dead space, and fsck
cleanliness.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Deployment
from repro.core import DHnswConfig, fsck
from repro.datasets.synthetic import make_clustered
from repro.layout.group_layout import cluster_read_extent


@pytest.fixture(scope="module")
def churned():
    rng = np.random.default_rng(55)
    corpus = make_clustered(700, 12, num_clusters=8, cluster_std=0.05,
                            rng=rng)
    config = DHnswConfig(num_representatives=8, nprobe=2,
                         overflow_capacity_records=4,
                         region_headroom=4.0, seed=55)
    deployment = Deployment(corpus, config)
    client = deployment.client(0)
    rebuilds = 0
    for i in range(80):
        base = corpus[int(rng.integers(0, corpus.shape[0]))]
        report = client.insert(
            base + rng.normal(0, 1e-3, base.shape).astype(np.float32),
            5000 + i)
        rebuilds += report.triggered_rebuild
    assert rebuilds >= 5, "churn did not trigger enough rebuilds"
    return deployment, client, corpus


def test_fsck_clean_after_churn(churned):
    deployment, _, _ = churned
    report = fsck(deployment.layout)
    assert report.clean, report.summary()


def test_tail_counters_stay_aligned(churned):
    deployment, _, _ = churned
    for group in deployment.layout.metadata.groups:
        assert group.overflow_offset % 8 == 0


def test_extents_stay_in_bounds(churned):
    deployment, _, _ = churned
    metadata = deployment.layout.metadata
    for cid in range(metadata.num_clusters):
        offset, length = cluster_read_extent(metadata, cid)
        assert 0 <= offset
        assert offset + length <= deployment.layout.region.length


def test_dead_space_is_recycled(churned):
    """With the free-list allocator, heavy churn must not grow the
    region tail unboundedly: dead extents get reused."""
    deployment, _, _ = churned
    allocator = deployment.layout.allocator
    # The region was sized with 4x headroom; rebuild churn must fit.
    assert allocator.tail <= deployment.layout.region.length
    # Recycling keeps fragmentation from approaching 100 %.
    assert allocator.fragmentation() < 0.9


def test_base_corpus_still_fully_searchable(churned):
    deployment, client, corpus = churned
    rng = np.random.default_rng(56)
    sample = rng.choice(corpus.shape[0], size=40, replace=False)
    batch = client.search_batch(corpus[sample], 1, ef_search=48)
    found = sum(int(result.ids[0]) == int(row)
                for result, row in zip(batch.results, sample))
    # Near-duplicate inserts may legitimately outrank a few originals.
    assert found >= 35


def test_metadata_version_reflects_rebuild_count(churned):
    deployment, client, _ = churned
    assert client.metadata.version == deployment.layout.metadata.version
    assert client.metadata.version > 1


def test_growth_at_default_headroom_leaves_no_slivers(small_dataset):
    """A relocation sizes its extent before the base (hence the tail
    word's pad) is known and used to orphan the 1-8 B it did not need.
    Nothing could name those bytes, so they sat between retired groups,
    kept the free list from coalescing, and a stream that grows the
    corpus by half ran out of region at a quarter of the way."""
    config = DHnswConfig(num_representatives=24, nprobe=3,
                         overflow_capacity_records=8, seed=7)
    assert config.region_headroom == 3.0
    deployment = Deployment(small_dataset.vectors, config)
    client = deployment.client(0)
    allocator = deployment.layout.allocator
    rng = np.random.default_rng(57)
    peak_tail = 0
    for i, base in enumerate(small_dataset.vectors[:600]):
        client.insert(
            base + rng.normal(0, 1e-3, base.shape).astype(np.float32),
            9000 + i)
        peak_tail = max(peak_tail, allocator.tail)
    assert client.mutation.stats.rebuilds_led >= 50
    free = allocator.free_extents()
    assert all(later - (offset + length) >= 16
               for (offset, length), (later, _) in zip(free, free[1:]))
    assert peak_tail < 0.9 * allocator.capacity_bytes
    report = fsck(deployment.layout)
    assert report.clean and not report.findings, report.summary()
