"""Picklable per-cluster build and rebuild tasks.

The worker-process half of the parallel construction pipeline: each task
captures everything one sub-HNSW cluster needs — its members (or its
serialized blob plus overflow records) and fully resolved parameters —
and the task functions are pure, so executing them in a
:class:`~repro.core.build_pool.BuildPool` at any worker count yields
byte-identical blobs.

Seeding: callers derive each task's parameters as
``params.replace(seed=root_seed + cluster_id)`` (the same rule
:func:`repro.core.partitions.build_sub_hnsws` uses), which decouples a
cluster's insertion randomness from whichever process builds it.

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
                                     serialize_cluster)

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

    ``params`` is the deployment's base sub-index parameters; the
    cluster-specific seed is derived inside the task (mirroring the
    in-process rebuild) so the task tuple stays self-contained.
    """

    cluster_id: int
    dim: int
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
    erases earlier inserts), rebuilds the cluster from scratch when any
    record overrides a label already present in the blob, then appends
    the remaining live records.
    """
    index, _ = deserialize_cluster(task.blob, task.params)
    latest: dict[int, OverflowRecord | None] = {}
    for record in task.records:
        latest[record.global_id] = None if record.tombstone else record
    live = [record for record in latest.values() if record is not None]
    vectors = [record.vector for record in live]
    labels = [record.global_id for record in live]
    overridden = set(latest).intersection(index.labels)
    if overridden:
        kept = [node for node, label in enumerate(index.labels)
                if label not in overridden]
        vectors = [*index.graph.vectors[kept], *vectors]
        labels = [*(index.labels[node] for node in kept), *labels]
        index = HnswIndex(task.dim, task.params.replace(
            seed=task.params.seed + task.cluster_id))
    if labels:
        # One batch, so every insert shares its pair table.
        index.add(np.stack(vectors), labels=labels)
    return serialize_cluster(index, task.cluster_id)
