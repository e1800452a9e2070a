"""Picklable per-cluster build and rebuild tasks.

The worker-process half of the parallel construction pipeline: each task
captures everything one sub-HNSW cluster needs — its members (or its
serialized blob plus overflow records) and fully resolved parameters —
and the task functions are pure, so executing them in a
:class:`~repro.core.build_pool.BuildPool` at any worker count yields
byte-identical blobs.

Seeding: callers derive each build task's parameters as
``params.replace(seed=root_seed + cluster_id)`` (the same rule
:func:`repro.core.partitions.build_sub_hnsws` uses), which decouples a
cluster's insertion randomness from whichever process builds it.  A
rebuild task needs no derivation: unlinking draws no random number, and
the appended nodes' levels come from the deployment's base seed.

This module lives in the hnsw layer on purpose: it depends only on the
index and the serializer, so both the offline builder
(:mod:`repro.core.engine`) and the online rebuild path
(:meth:`repro.mutation.writer.MutationEngine.rebuild_group`) can fan
tasks out without layering cycles.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.hnsw.index import HnswIndex
from repro.hnsw.params import HnswParams
from repro.layout.serializer import (OverflowRecord, deserialize_cluster,
                                     replay_overflow, serialize_cluster)

__all__ = ["ClusterBuildTask", "ClusterRebuildTask", "build_cluster_blob",
           "rebuild_cluster_blob"]


@dataclasses.dataclass(frozen=True)
class ClusterBuildTask:
    """Build one sub-HNSW from scratch and serialize it.

    ``params`` must already carry the cluster-specific seed.
    """

    cluster_id: int
    dim: int
    vectors: np.ndarray
    labels: list[int]
    params: HnswParams


@dataclasses.dataclass(frozen=True)
class ClusterRebuildTask:
    """Fold a cluster's overflow records back into its serialized blob.

    ``params`` is the deployment's base sub-index parameters, the same
    for every cluster.
    """

    cluster_id: int
    blob: bytes
    records: list[OverflowRecord]
    params: HnswParams


def build_cluster_blob(task: ClusterBuildTask) -> bytes:
    """Construct the cluster index and return its serialized blob."""
    index = HnswIndex(task.dim, task.params)
    if len(task.labels):
        index.add(task.vectors, labels=task.labels)
    return serialize_cluster(index, task.cluster_id)


def rebuild_cluster_blob(task: ClusterRebuildTask) -> bytes:
    """Merge overflow records into a cluster and reserialize it.

    Replays the records to their latest state per global id (a tombstone
    erases earlier inserts), unlinks the base nodes whose id has a record
    — deleted or superseded — and repairs around them in place
    (:meth:`HnswIndex.remove`), then appends the live records as one
    batch.  What a rebuild costs follows what the records change, never
    the size of the cluster; with no records the blob comes back byte for
    byte.
    """
    index, _ = deserialize_cluster(task.blob, task.params)
    latest = replay_overflow(task.records)
    index.remove(node for node, label in enumerate(index.labels)
                 if label in latest)
    live = [record for record in latest.values() if record is not None]
    if live:
        # One batch, so every insert shares its pair table.
        index.add(np.stack([record.vector for record in live]),
                  labels=[record.global_id for record in live])
    return serialize_cluster(index, task.cluster_id)
