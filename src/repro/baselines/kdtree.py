"""A k-d tree with best-first bounded search (paper reference [24]).

The tree-family baseline from §2.1.  Exact search backtracks until the
candidate heap provably contains the true top-k; approximate search caps
the number of leaf visits (``max_leaves``), which is how k-d trees are
used in practice at high dimension — and why they lose to graphs there:
the number of leaves needed for good recall explodes with
dimensionality ("curse of dimensionality").
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Sequence

import numpy as np

from repro.errors import ConfigError, EmptyIndexError
from repro.hnsw.distance import DistanceKernel

__all__ = ["KdTreeIndex"]

_LEAF_SIZE = 16


@dataclasses.dataclass
class _Node:
    """Internal node: splitting hyperplane; leaf: row block."""

    # Leaf payload
    rows: np.ndarray | None = None
    # Split payload
    axis: int = -1
    threshold: float = 0.0
    left: "int | None" = None
    right: "int | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.rows is not None


class KdTreeIndex:
    """Median-split k-d tree over float32 vectors."""

    def __init__(self, dim: int, leaf_size: int = _LEAF_SIZE) -> None:
        if dim < 1:
            raise ConfigError(f"dim must be >= 1, got {dim}")
        if leaf_size < 1:
            raise ConfigError(f"leaf_size must be >= 1, got {leaf_size}")
        self.dim = dim
        self.leaf_size = leaf_size
        self.kernel = DistanceKernel(dim)
        self._vectors = np.empty((0, dim), dtype=np.float32)
        self._labels: list[int] = []
        self._nodes: list[_Node] = []
        self._root: int | None = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._vectors.shape[0]

    def build(self, vectors: np.ndarray,
              labels: Sequence[int] | None = None) -> None:
        """(Re)build the tree over ``vectors``."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if vectors.shape[1] != self.dim:
            raise ConfigError(
                f"expected dim {self.dim}, got {vectors.shape[1]}")
        if labels is None:
            self._labels = list(range(vectors.shape[0]))
        else:
            if len(labels) != vectors.shape[0]:
                raise ConfigError(
                    f"{vectors.shape[0]} vectors but {len(labels)} labels")
            self._labels = [int(x) for x in labels]
        self._vectors = vectors
        self._nodes = []
        rows = np.arange(vectors.shape[0])
        self._root = self._build_node(rows, depth=0) if len(rows) else None

    def _build_node(self, rows: np.ndarray, depth: int) -> int:
        node_id = len(self._nodes)
        self._nodes.append(_Node())
        if len(rows) <= self.leaf_size:
            self._nodes[node_id].rows = rows
            return node_id
        # Split on the axis of largest spread among this block.
        block = self._vectors[rows]
        axis = int(np.argmax(block.max(axis=0) - block.min(axis=0)))
        values = block[:, axis]
        threshold = float(np.median(values))
        left_mask = values <= threshold
        # Degenerate split (all equal on the axis): make a leaf.
        if left_mask.all() or not left_mask.any():
            self._nodes[node_id].rows = rows
            return node_id
        node = self._nodes[node_id]
        node.axis = axis
        node.threshold = threshold
        node.left = self._build_node(rows[left_mask], depth + 1)
        node.right = self._build_node(rows[~left_mask], depth + 1)
        return node_id

    # ------------------------------------------------------------------
    def search(self, query: np.ndarray, k: int,
               max_leaves: int | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
        """Best-first top-``k``.

        ``max_leaves=None`` is exact; a cap makes it approximate (the
        practical regime the paper's §2.1 critique refers to).
        """
        if self._root is None:
            raise EmptyIndexError("search on empty k-d tree")
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        if max_leaves is not None and max_leaves < 1:
            raise ConfigError(
                f"max_leaves must be >= 1, got {max_leaves}")
        query = np.asarray(query, dtype=np.float32).reshape(-1)

        # Priority queue of (lower-bound distance^2, node id).
        frontier: list[tuple[float, int]] = [(0.0, self._root)]
        best: list[tuple[float, int]] = []  # max-heap via negation
        leaves_visited = 0
        while frontier:
            bound, node_id = heapq.heappop(frontier)
            if len(best) >= k and bound > -best[0][0]:
                break  # nothing left can improve the top-k
            node = self._nodes[node_id]
            if node.is_leaf:
                assert node.rows is not None
                leaves_visited += 1
                dists = self.kernel.many(query,
                                         self._vectors[node.rows])
                for row, dist in zip(node.rows.tolist(), dists.tolist()):
                    if len(best) < k:
                        heapq.heappush(best, (-dist, row))
                    elif dist < -best[0][0]:
                        heapq.heapreplace(best, (-dist, row))
                if max_leaves is not None and leaves_visited >= max_leaves:
                    break
                continue
            diff = query[node.axis] - node.threshold
            near, far = ((node.left, node.right) if diff <= 0
                         else (node.right, node.left))
            assert near is not None and far is not None
            heapq.heappush(frontier, (bound, near))
            heapq.heappush(frontier, (max(bound, diff * diff), far))

        ordered = sorted((-negated, row) for negated, row in best)
        return (np.array([self._labels[row] for _, row in ordered],
                         dtype=np.int64),
                np.array([dist for dist, _ in ordered],
                         dtype=np.float32))

    def reset_compute_counter(self) -> int:
        """Zero the distance counter; returns the old value."""
        return self.kernel.reset_counter()

    @property
    def compute_count(self) -> int:
        """Distance evaluations since the last reset."""
        return self.kernel.num_evaluations
