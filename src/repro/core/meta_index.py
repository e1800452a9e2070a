"""The meta-HNSW: a lightweight representative index (§3.1).

"Inspired by Pyramid, we construct a three-layer representative HNSW,
referred to as meta-HNSW, by uniformly selecting 500 vectors.  This
meta-HNSW serves as a lightweight index and a cluster classifier for the
entire dataset."

Every vector in the meta-HNSW's bottom layer L0 defines one partition of
the corpus; routing a query = searching the meta-HNSW for the ``nprobe``
closest representatives.  The whole structure is small (the paper measures
0.373 MB for SIFT1M) and is cached on every compute instance.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.hnsw.index import HnswIndex
from repro.hnsw.params import HnswParams
from repro.hnsw.search import knn_from_candidates
from repro.layout.serializer import serialize_cluster

__all__ = ["MetaHnsw", "sample_representatives"]


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

    def route(self, query: np.ndarray, nprobe: int,
              ef: int) -> list[int]:
        """Partition ids of the ``nprobe`` closest representatives.

        This is greedy routing from the fixed L2 entry point down to L0,
        exactly the paper's coarse-grained classification step.
        """
        if nprobe < 1:
            raise ConfigError(f"nprobe must be >= 1, got {nprobe}")
        nprobe = min(nprobe, self.num_partitions)
        labels, _ = self.index.search(query, nprobe, ef=max(ef, nprobe))
        return [int(x) for x in labels]

    def route_batch(self, queries: np.ndarray, nprobe: int,
                    ef: int) -> list[list[int]]:
        """:meth:`route` for every row of ``queries``.

        Routing decisions, distance-evaluation totals, and therefore the
        simulated meta-HNSW latency are identical to per-query
        :meth:`route` calls; the whole batch shares one distance-table
        computation
        (:meth:`~repro.hnsw.index.HnswIndex.search_candidates_batch`).
        """
        if nprobe < 1:
            raise ConfigError(f"nprobe must be >= 1, got {nprobe}")
        nprobe = min(nprobe, self.num_partitions)
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        candidate_lists = self.index.search_candidates_batch(
            queries, nprobe, ef=max(ef, nprobe))
        labels = self.index.labels
        return [[int(labels[node])
                 for _, node in knn_from_candidates(candidates, nprobe)]
                for candidates in candidate_lists]

    def route_with_distances(self, query: np.ndarray, nprobe: int,
                             ef: int) -> tuple[list[int], list[float]]:
        """Like :meth:`route`, also returning representative distances."""
        if nprobe < 1:
            raise ConfigError(f"nprobe must be >= 1, got {nprobe}")
        nprobe = min(nprobe, self.num_partitions)
        labels, dists = self.index.search(query, nprobe,
                                          ef=max(ef, nprobe))
        return [int(x) for x in labels], [float(d) for d in dists]

    def route_adaptive(self, query: np.ndarray, max_probe: int, ef: int,
                       alpha: float, min_probe: int = 1) -> list[int]:
        """Distance-gap adaptive routing (an extension beyond the paper).

        Probes only partitions whose representative distance is within
        ``alpha`` times the closest representative's, between
        ``min_probe`` and ``max_probe`` partitions.  Easy queries — deep
        inside one cluster — then touch a single sub-HNSW, saving
        bandwidth without hurting recall; boundary queries keep the full
        probe width.  (In the spirit of the learned-termination work the
        paper cites as related, reference [12].)
        """
        if alpha < 1.0:
            raise ConfigError(f"alpha must be >= 1.0, got {alpha}")
        if not 1 <= min_probe <= max_probe:
            raise ConfigError(
                f"need 1 <= min_probe <= max_probe, got "
                f"{min_probe}..{max_probe}")
        ids, dists = self.route_with_distances(query, max_probe, ef)
        threshold = alpha * dists[0]
        kept = [pid for pid, dist in zip(ids, dists) if dist <= threshold]
        if len(kept) < min_probe:
            kept = ids[:min_probe]
        return kept

    def classify(self, vector: np.ndarray, ef: int = 32) -> int:
        """The single partition a (new) vector belongs to."""
        return self.route(vector, 1, ef)[0]

    def classify_batch(self, vectors: np.ndarray,
                       ef: int = 32) -> np.ndarray:
        """Partition assignment for each row of ``vectors``."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        return np.array([self.classify(vector, ef) for vector in vectors],
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
