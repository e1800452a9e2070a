"""The meta-HNSW: a lightweight representative index (§3.1).

"Inspired by Pyramid, we construct a three-layer representative HNSW,
referred to as meta-HNSW, by uniformly selecting 500 vectors.  This
meta-HNSW serves as a lightweight index and a cluster classifier for the
entire dataset."

Every vector in the meta-HNSW's bottom layer L0 defines one partition of
the corpus; routing a query = searching the meta-HNSW for the ``nprobe``
closest representatives and keeping those near the closest one (the paper
probes all ``b`` of them).  The whole structure is small (the paper measures
0.373 MB for SIFT1M) and is cached on every compute instance.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.hnsw.index import HnswIndex
from repro.hnsw.params import HnswParams
from repro.hnsw.search import knn_from_candidates
from repro.layout.serializer import serialize_cluster

__all__ = ["MetaHnsw", "ROUTE_ALPHA", "sample_representatives"]

#: A routed query keeps each of its ``nprobe`` candidate partitions whose
#: representative distance is <= ``ROUTE_ALPHA`` x the closest one's.  The
#: ratio applies to the kernel's *squared* L2, so it is ~1.58x in plain
#: distance.  Read at call time: patch it to ``math.inf`` for the paper's
#: fixed ``nprobe`` width.
ROUTE_ALPHA = 2.5


def sample_representatives(num_vectors: int, num_representatives: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Uniformly sample representative row indices without replacement."""
    if num_representatives > num_vectors:
        raise ConfigError(
            f"cannot sample {num_representatives} representatives from "
            f"{num_vectors} vectors")
    return np.sort(rng.choice(num_vectors, size=num_representatives,
                              replace=False))


class MetaHnsw:
    """Three-layer representative HNSW over uniformly sampled vectors.

    Layer populations follow the exponential shrinkage of HNSW: all
    representatives live in L0, roughly ``1/m`` of them also in L1 and
    ``1/m^2`` in L2, assigned deterministically from the build seed so a
    deployment is reproducible.
    """

    def __init__(self, representatives: np.ndarray,
                 params: HnswParams) -> None:
        representatives = np.atleast_2d(
            np.asarray(representatives, dtype=np.float32))
        if representatives.shape[0] < 1:
            raise ConfigError("meta-HNSW needs at least one representative")
        if params.max_level != 2:
            raise ConfigError("meta-HNSW must be three-layered (max_level=2)")
        self.params = params
        self.index = HnswIndex(representatives.shape[1], params)
        # Partition id == insertion order == L0 node id.
        self.index.add(
            representatives,
            forced_levels=self._layer_assignment(representatives.shape[0],
                                                 params.m))

    @classmethod
    def from_index(cls, index: HnswIndex,
                   params: HnswParams) -> "MetaHnsw":
        """Wrap an already-built three-layer index (persistence restore).

        The index must have been produced by a prior ``MetaHnsw`` build
        (labels ``0..n-1``, at most three layers).
        """
        if params.max_level != 2:
            raise ConfigError("meta-HNSW must be three-layered (max_level=2)")
        if index.graph.max_level > 2:
            raise ConfigError(
                f"index has {index.graph.max_level + 1} layers; "
                f"a meta-HNSW has at most 3")
        if index.labels != list(range(len(index))):
            raise ConfigError(
                "meta-HNSW labels must be dense partition ids")
        meta = cls.__new__(cls)
        meta.params = params
        meta.index = index
        return meta

    @staticmethod
    def _layer_assignment(count: int, m: int) -> list[int]:
        """Deterministic 3-layer split: first ~count/m^2 nodes reach L2,
        the next ~count/m reach L1, the rest stay in L0."""
        num_l2 = max(1, count // (m * m))
        num_l1 = max(num_l2, count // m)
        levels = []
        for row in range(count):
            if row < num_l2:
                levels.append(2)
            elif row < num_l1:
                levels.append(1)
            else:
                levels.append(0)
        return levels

    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        """One partition per representative."""
        return len(self.index)

    @property
    def dim(self) -> int:
        """Vector dimensionality."""
        return self.index.dim

    def route_batch(self, queries: np.ndarray, nprobe: int, ef: int,
                    evaluations: list[int] | None = None
                    ) -> list[list[int]]:
        """Partition ids each row of ``queries`` probes, closest first.

        Greedy routing from the fixed L2 entry point down to L0 finds the
        ``nprobe`` closest representatives (the paper's ``b``); of those,
        a row keeps the ones within :data:`ROUTE_ALPHA` of its closest
        (always at least one), so ``nprobe`` is a cap.  A query deep
        inside one partition fetches and searches that sub-HNSW alone;
        one on a boundary keeps the full width.  The whole batch shares
        one distance-table computation
        (:meth:`~repro.hnsw.index.HnswIndex.search_candidates_batch`), and
        decisions and evaluation counts equal per-row calls;
        ``evaluations``, when given, receives each row's count.
        """
        if nprobe < 1:
            raise ConfigError(f"nprobe must be >= 1, got {nprobe}")
        nprobe = min(nprobe, self.num_partitions)
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        candidate_lists = self.index.search_candidates_batch(
            queries, nprobe, ef=max(ef, nprobe), evaluations=evaluations)
        labels = self.index.labels
        routed = []
        for candidates in candidate_lists:
            top = knn_from_candidates(candidates, nprobe)
            nearest = top[0][0]
            # Dividing keeps the closest, and stays defined for an
            # infinite ratio over a zero distance.
            routed.append([int(labels[node]) for dist, node in top
                           if dist / ROUTE_ALPHA <= nearest])
        return routed

    def classify(self, vector: np.ndarray, ef: int = 32) -> int:
        """The single partition a (new) vector belongs to."""
        return int(self.classify_batch(vector, ef)[0])

    def classify_batch(self, vectors: np.ndarray,
                       ef: int = 32) -> np.ndarray:
        """Partition assignment for each row of ``vectors``."""
        return np.array([ids[0] for ids in self.route_batch(vectors, 1, ef)],
                        dtype=np.int64)

    # ------------------------------------------------------------------
    def serialized_size_bytes(self) -> int:
        """Size of the serialized meta-HNSW (the paper's footprint claim)."""
        return len(serialize_cluster(self.index, 0))

    def reset_compute_counter(self) -> int:
        """Zero the distance counter; returns the old value."""
        return self.index.reset_compute_counter()

    @property
    def compute_count(self) -> int:
        """Distance evaluations since the last reset."""
        return self.index.compute_count
