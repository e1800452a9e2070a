"""Vectorized, *counted* distance kernels.

The simulator charges compute time per distance evaluation (see
``repro.rdma.network.CostModel``), so every kernel routes through a
:class:`DistanceKernel` instance that counts evaluations.  Counting is the
basis of the meta-HNSW / sub-HNSW compute breakdown in Tables 1 and 2 of the
paper.

Every kernel is squared Euclidean distance (the square root is monotone
and therefore irrelevant for ranking): the paper evaluates SIFT1M and
GIST1M, both L2 benchmarks, so L2 is the library's only distance.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionMismatchError

__all__ = ["DistanceKernel", "pairwise_l2"]


def pairwise_l2(queries: np.ndarray, corpus: np.ndarray) -> np.ndarray:
    """Squared L2 distances between every query row and every corpus row.

    Uses the expansion ``|q - x|^2 = |q|^2 - 2 q.x + |x|^2`` which is one
    GEMM instead of a broadcasted subtraction; this is the only way a pure
    NumPy brute-force ground truth stays tractable at 10^5 x 10^5 scale.
    """
    q_sq = np.einsum("ij,ij->i", queries, queries)[:, None]
    c_sq = np.einsum("ij,ij->i", corpus, corpus)[None, :]
    cross = queries @ corpus.T
    out = q_sq - 2.0 * cross + c_sq
    # Rounding can push tiny true-zero distances below zero.
    np.maximum(out, 0.0, out=out)
    return out


class DistanceKernel:
    """Squared L2 bound to a dimensionality, with an evaluation counter.

    Parameters
    ----------
    dim:
        Expected vector dimensionality; every call validates against it.
    """

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = int(dim)
        self.num_evaluations = 0

    def reset_counter(self) -> int:
        """Zero the evaluation counter, returning its previous value."""
        previous = self.num_evaluations
        self.num_evaluations = 0
        return previous

    def _check(self, array: np.ndarray) -> np.ndarray:
        array = np.asarray(array, dtype=np.float32)
        if array.shape[-1] != self.dim:
            raise DimensionMismatchError(self.dim, array.shape[-1])
        return array

    def one(self, a: np.ndarray, b: np.ndarray) -> float:
        """Distance between two single vectors."""
        return self.one_prechecked(self._check(a), self._check(b))

    def one_prechecked(self, a: np.ndarray, b: np.ndarray) -> float:
        """:meth:`one` minus input validation, for pre-validated arrays.

        Same arithmetic and counting; both operands must already be
        float32 vectors of the kernel's dimensionality.  Used by the
        index's batch search loop, which validates the query matrix
        once instead of twice per query.
        """
        self.num_evaluations += 1
        diff = a - b
        return float(diff @ diff)

    def many(self, query: np.ndarray, corpus: np.ndarray) -> np.ndarray:
        """Distances from one query vector to every row of ``corpus``.

        This is the hot path of HNSW neighbourhood expansion: one call per
        hop, vectorized over the hop's unvisited neighbours.
        """
        query = self._check(query)
        corpus = self._check(np.atleast_2d(corpus))
        return self.many_prechecked(query, corpus)

    def many_prechecked(self, query: np.ndarray,
                        corpus: np.ndarray) -> np.ndarray:
        """:meth:`many` minus input validation, for pre-validated arrays.

        The per-hop traversal (:mod:`repro.hnsw.search`) calls this
        once per hop with arrays it gathered itself; ``query`` must be a
        float32 vector and ``corpus`` a float32 matrix of matching width.
        Arithmetic and counting are exactly :meth:`many`'s, so results
        stay bit-identical between the two entry points.
        """
        self.num_evaluations += corpus.shape[0]
        diff = corpus - query
        return np.einsum("ij,ij->i", diff, diff)

    #: Ceiling on the ``(chunk, nodes, dim)`` float32 broadcast temporary
    #: of a batched :meth:`l2_table` call, in scalar elements (~16 MB).
    TABLE_CHUNK_ELEMENTS = 4_000_000

    def l2_table(self, queries: np.ndarray,
                 corpus: np.ndarray) -> np.ndarray:
        """**Uncounted** L2 distances from each query to every corpus row.

        The table traversal (:mod:`repro.hnsw.search`) evaluates a
        whole small graph up front and credits ``num_evaluations`` only
        for the rows the traversal actually visits, so this method does
        not touch the counter — every other kernel entry point counts.

        The arithmetic is row-for-row :meth:`many`'s (subtract, then a
        last-axis einsum reduction, which NumPy computes per row
        independent of the corpus shape), so any row subset of the result
        is bit-identical to evaluating that subset directly.

        A 1-D ``queries`` yields a ``(nodes,)`` table; a 2-D batch yields
        ``(num_queries, nodes)``, computed in query chunks to bound the
        broadcast temporary.
        """
        if queries.ndim == 1:
            diff = corpus - queries
            return np.einsum("ij,ij->i", diff, diff)
        num_queries = queries.shape[0]
        per_query = corpus.shape[0] * corpus.shape[1]
        chunk = max(1, self.TABLE_CHUNK_ELEMENTS // max(per_query, 1))
        out = np.empty((num_queries, corpus.shape[0]), dtype=np.float32)
        for start in range(0, num_queries, chunk):
            block = queries[start:start + chunk]
            diff = corpus[None, :, :] - block[:, None, :]
            np.einsum("qij,qij->qi", diff, diff, out=out[start:start + len(block)])
        return out

    def cross(self, queries: np.ndarray, corpus: np.ndarray) -> np.ndarray:
        """Full distance matrix between query rows and corpus rows."""
        queries = self._check(np.atleast_2d(queries))
        corpus = self._check(np.atleast_2d(corpus))
        self.num_evaluations += queries.shape[0] * corpus.shape[0]
        return pairwise_l2(queries, corpus)
