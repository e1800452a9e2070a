"""d-HNSW: efficient vector search on (simulated) RDMA disaggregated memory.

A from-scratch reproduction of *"Efficient Vector Search on Disaggregated
Memory with d-HNSW"* (HotStorage 2025).  The package contains:

* :mod:`repro.core` — the paper's contribution: meta-HNSW routing,
  RDMA-friendly group layout, query-aware batched loading, the three
  evaluation schemes.
* :mod:`repro.hnsw` — a complete HNSW index implementation.
* :mod:`repro.rdma` — a deterministic simulator of one-sided RDMA verbs
  over a disaggregated compute/memory pool (the hardware substitution
  documented in DESIGN.md).
* :mod:`repro.layout` — serialization and remote memory layout.
* :mod:`repro.datasets` — SIFT/GIST-shaped synthetic corpora, TEXMEX IO,
  exact ground truth.
* :mod:`repro.metrics` — recall and latency-breakdown measurement.
* :mod:`repro.cluster` — multi-instance deployments and load balancing.

Quickstart::

    import numpy as np
    from repro import Deployment, DHnswConfig, Scheme

    rng = np.random.default_rng(0)
    corpus = rng.random((5000, 64), dtype=np.float32)
    deployment = Deployment(corpus, DHnswConfig(nprobe=4))
    batch = deployment.client().search_batch(corpus[:8], k=10, ef_search=32)
    print(batch.results[0].ids, batch.per_query_breakdown())
"""

from repro.cluster import (
    ClusterBatchResult,
    Deployment,
    LoadBalancer,
    ShardedDeployment,
)
from repro.core import (
    BatchResult,
    BuildReport,
    DHnswBuilder,
    DHnswClient,
    DHnswConfig,
    InsertReport,
    MetaHnsw,
    QueryResult,
    RemoteLayout,
    Scheme,
)
from repro.datasets import Dataset, exact_knn, gist_like, sift_like
from repro.frontdoor import (
    FrontDoor,
    FrontDoorConfig,
    LoadReport,
    TenantPolicy,
)
from repro.hnsw import DistanceKernel, HnswIndex, HnswParams
from repro.metrics import LatencyBreakdown, recall_at_k
from repro.persist import load_deployment, save_deployment
from repro.rdma import CostModel, MemoryNode, SimClock

__version__ = "1.0.0"

__all__ = [
    "BatchResult",
    "BuildReport",
    "ClusterBatchResult",
    "CostModel",
    "DHnswBuilder",
    "DHnswClient",
    "DHnswConfig",
    "Dataset",
    "Deployment",
    "DistanceKernel",
    "FrontDoor",
    "FrontDoorConfig",
    "HnswIndex",
    "HnswParams",
    "InsertReport",
    "LatencyBreakdown",
    "LoadBalancer",
    "LoadReport",
    "MemoryNode",
    "MetaHnsw",
    "QueryResult",
    "RemoteLayout",
    "Scheme",
    "ShardedDeployment",
    "SimClock",
    "TenantPolicy",
    "exact_knn",
    "gist_like",
    "load_deployment",
    "recall_at_k",
    "save_deployment",
    "sift_like",
    "__version__",
]
