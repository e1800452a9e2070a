"""Partitioning the corpus and building one sub-HNSW per partition (§3.1).

"Each vector in L0 defines a partition and serves as an entry point to a
corresponding sub-HNSW.  All vectors assigned to the same partition will be
used to construct their respective sub-HNSW."

Assignment uses exact nearest-representative classification (the corpus is
available in full at build time, so there is no reason to approximate);
query-time routing, by contrast, always goes through the meta-HNSW's greedy
search, as on real hardware.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.meta_index import MetaHnsw
from repro.hnsw.distance import DistanceKernel
from repro.hnsw.index import HnswIndex
from repro.hnsw.parallel_build import ClusterBuildTask
from repro.hnsw.params import HnswParams

__all__ = ["Partitioning", "assign_partitions", "build_sub_hnsws",
           "cluster_build_tasks"]


@dataclasses.dataclass
class Partitioning:
    """Corpus split into per-representative partitions.

    ``assignments[i]`` is the partition of corpus vector ``i``;
    ``members[p]`` lists the global ids inside partition ``p`` (possibly
    empty — a representative may attract no vectors).
    """

    assignments: np.ndarray
    members: list[np.ndarray]

    @property
    def num_partitions(self) -> int:
        """Number of partitions (== meta-HNSW L0 size)."""
        return len(self.members)

    def sizes(self) -> np.ndarray:
        """Population of each partition."""
        return np.array([len(m) for m in self.members], dtype=np.int64)


def assign_partitions(vectors: np.ndarray, meta: MetaHnsw,
                      chunk_size: int = 1024) -> Partitioning:
    """Assign every corpus vector to its exact nearest representative."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
    kernel = DistanceKernel(meta.dim)
    representatives = meta.index.graph.vectors
    assignments = np.empty(vectors.shape[0], dtype=np.int64)
    for start in range(0, vectors.shape[0], chunk_size):
        block = vectors[start:start + chunk_size]
        dists = kernel.cross(block, representatives)
        assignments[start:start + block.shape[0]] = np.argmin(dists, axis=1)
    members = [np.flatnonzero(assignments == p)
               for p in range(meta.num_partitions)]
    return Partitioning(assignments=assignments, members=members)


def cluster_build_tasks(vectors: np.ndarray, partitioning: Partitioning,
                        params: HnswParams,
                        labels: np.ndarray | None = None
                        ) -> list[ClusterBuildTask]:
    """One self-contained build task per partition.

    Each task carries its members' vectors, global labels and the
    cluster-seeded parameters (``params.seed + partition_id``, exactly
    :func:`build_sub_hnsws`'s rule), so executing the tasks in any
    process produces the same sub-HNSWs that function would.
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
    if labels is not None and len(labels) != vectors.shape[0]:
        raise ValueError(
            f"{vectors.shape[0]} vectors but {len(labels)} labels")
    tasks = []
    for partition_id, member_ids in enumerate(partitioning.members):
        member_labels = (labels[member_ids] if labels is not None
                         else member_ids)
        tasks.append(ClusterBuildTask(
            cluster_id=partition_id,
            dim=vectors.shape[1],
            vectors=vectors[member_ids],
            labels=[int(x) for x in member_labels],
            params=params.replace(seed=params.seed + partition_id)))
    return tasks


def build_sub_hnsws(vectors: np.ndarray, partitioning: Partitioning,
                    params: HnswParams,
                    labels: np.ndarray | None = None) -> list[HnswIndex]:
    """Construct one sub-HNSW per partition, labelled with global ids.

    ``labels[i]`` is the global id of corpus row ``i`` (defaults to the
    row index); sharded deployments pass their rows' corpus-wide ids so
    results merge without remapping.  Empty partitions yield empty
    indexes; they serialize to a header-only blob and are skipped at
    query time.
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
    if labels is not None and len(labels) != vectors.shape[0]:
        raise ValueError(
            f"{vectors.shape[0]} vectors but {len(labels)} labels")
    indexes = []
    for partition_id, member_ids in enumerate(partitioning.members):
        sub_params = params.replace(seed=params.seed + partition_id)
        index = HnswIndex(vectors.shape[1], sub_params)
        if len(member_ids):
            member_labels = (labels[member_ids] if labels is not None
                             else member_ids)
            index.add(vectors[member_ids],
                      labels=[int(x) for x in member_labels])
        indexes.append(index)
    return indexes
