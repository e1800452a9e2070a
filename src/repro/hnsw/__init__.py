"""From-scratch HNSW: the graph-index substrate of d-HNSW.

Public surface:

* :class:`~repro.hnsw.index.HnswIndex` — a complete standalone HNSW index.
* :class:`~repro.hnsw.params.HnswParams` — construction parameters.
* :class:`~repro.hnsw.distance.DistanceKernel` — counted squared-L2
  distance kernels.
"""

from repro.hnsw.distance import DistanceKernel, pairwise_l2
from repro.hnsw.graph import LayeredGraph
from repro.hnsw.index import HnswIndex
from repro.hnsw.params import HnswParams

__all__ = [
    "DistanceKernel",
    "HnswIndex",
    "HnswParams",
    "LayeredGraph",
    "pairwise_l2",
]
