"""Deletes through the write path: a shadow rebuild unlinks the base
nodes its overflow tombstones or supersedes and leaves the rest of the
member's graph where it was."""

from __future__ import annotations

import numpy as np

from repro.core import DHnswClient, fsck
from repro.hnsw.index import HnswIndex
from repro.layout.serializer import deserialize_cluster


def member_index(deployment, cluster_id: int) -> HnswIndex:
    """The cluster's base graph as the live metadata names it."""
    layout = deployment.layout
    entry = layout.metadata.clusters[cluster_id]
    blob = layout.memory_node.read(layout.rkey,
                                   layout.addr(entry.blob_offset),
                                   entry.blob_length)
    return deserialize_cluster(blob)[0]


def test_rebuild_unlinks_deleted_and_superseded_base_nodes(
        mutable_deployment, small_config, small_dataset, monkeypatch):
    client = DHnswClient(mutable_deployment.layout, mutable_deployment.meta,
                         small_config,
                         cost_model=mutable_deployment.cost_model)
    anchor = small_dataset.vectors[17]
    cluster_id = client.meta.classify(anchor)
    before = member_index(mutable_deployment, cluster_id)
    deleted, superseded = before.labels[3], before.labels[-2]
    moved = before.graph.vectors[-2] + np.float32(1e-3)
    assert client.meta.classify(moved) == cluster_id

    built = []
    construct = HnswIndex.__init__
    monkeypatch.setattr(
        HnswIndex, "__init__",
        lambda self, *args, **kwargs: (built.append(self),
                                       construct(self, *args, **kwargs))[1])
    client.delete(before.graph.vectors[3], deleted)
    client.insert(moved, superseded)
    fillers = []
    while not fillers or not report.triggered_rebuild:
        fillers.append(910_000 + len(fillers))
        report = client.insert(anchor + len(fillers) * 1e-4, fillers[-1])
    # One deserialized index per member: nothing was re-inserted.
    assert len(built) == 2
    monkeypatch.undo()

    after = member_index(mutable_deployment, cluster_id)
    after.graph.check_invariants()
    survivors = [label for label in before.labels
                 if label not in (deleted, superseded)]
    # Survivors keep their order; the overflow's live records follow in
    # slot order (the last filler triggered the rebuild and sits in the
    # fresh overflow area).
    assert after.labels == survivors + [superseded] + fillers[:-1]
    assert np.array_equal(after.graph.vectors[after.labels.index(superseded)],
                          moved)
    assert after.graph.unreachable() == []

    report = fsck(mutable_deployment.layout)
    assert report.clean, report.summary()
    assert not [finding for finding in report.findings
                if "unreachable" in finding.message]
    found = client.search(moved, 3, ef_search=48)
    assert found.ids[0] == superseded and deleted not in found.ids
