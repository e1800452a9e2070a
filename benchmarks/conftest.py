"""Shared benchmark infrastructure.

Each benchmark regenerates one table or figure of the paper's §4 on
laptop-scaled stand-ins for SIFT1M / GIST1M (see DESIGN.md for the
substitution argument).  Builds are expensive, so one deployment per
dataset is built per session and shared; per-scheme clients are created
fresh so caches never leak between experiments.

All latency numbers are simulated microseconds from
:class:`repro.rdma.network.CostModel`; wall-clock timings reported by
pytest-benchmark measure only how fast the *simulator* runs.

The paper-table worlds state ``pipeline_waves=False``: the HotStorage
loader is serial, so Tables 1-2 and Fig. 6 keep its schedule whatever the
library serves by default (``test_ablation_pipeline.py`` sweeps the
look-ahead on top).

Result tables are printed and also written under ``benchmarks/results/``.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.cluster import Deployment
from repro.core import DHnswClient, DHnswConfig, Scheme
from repro.datasets import Dataset, gist_like, sift_like
from repro.rdma import CostModel

#: The paper's testbed runs 24 compute instances against one memory node;
#: per-instance bandwidth under saturation is the fair share.
NUM_COMPUTE_INSTANCES = 24

#: efSearch sweep of Fig. 6 ("varied efSearch from 1 to 48").
EF_SWEEP = (1, 2, 4, 8, 16, 32, 48)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_SMOKE = os.environ.get("DHNSW_BENCH_SMOKE", "") == "1"


def bench_scale(sift_vectors: int = 8000, gist_vectors: int = 2500):
    """Corpus sizes, shrunk drastically under DHNSW_BENCH_SMOKE=1."""
    if _SMOKE:
        return 1200, 600
    return sift_vectors, gist_vectors


class BenchWorld:
    """A dataset plus a built deployment and per-scheme client factory."""

    def __init__(self, dataset: Dataset, config: DHnswConfig) -> None:
        self.dataset = dataset
        self.config = config
        self.cost_model = CostModel()
        self.deployment = Deployment(dataset.vectors, config,
                                     cost_model=self.cost_model,
                                     simulate_link_contention=False)
        self.loaded_cost_model = self.cost_model.shared_by(
            NUM_COMPUTE_INSTANCES)

    def client(self, scheme: Scheme, contended: bool = True) -> DHnswClient:
        """A fresh client (cold cache) for one scheme."""
        model = self.loaded_cost_model if contended else self.cost_model
        return DHnswClient(self.deployment.layout, self.deployment.meta,
                           self.config, scheme=scheme, cost_model=model,
                           name=f"bench-{scheme.value}")


@pytest.fixture(scope="session")
def sift_world() -> BenchWorld:
    sift_n, _ = bench_scale()
    dataset = sift_like(num_vectors=sift_n, num_queries=400,
                        num_clusters=100, gt_k=10, seed=42)
    config = DHnswConfig(nprobe=4, ef_meta=32, cache_fraction=0.10,
                         overflow_capacity_records=64,
                         pipeline_waves=False, seed=42)
    return BenchWorld(dataset, config)


@pytest.fixture(scope="session")
def gist_world() -> BenchWorld:
    _, gist_n = bench_scale()
    dataset = gist_like(num_vectors=gist_n, num_queries=200,
                        num_clusters=50, gt_k=10, seed=42)
    config = DHnswConfig(nprobe=4, ef_meta=32, cache_fraction=0.10,
                         overflow_capacity_records=64,
                         pipeline_waves=False, seed=42)
    return BenchWorld(dataset, config)


def emit_table(name: str, header: str, rows: list[str]) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    lines = [header] + rows
    text = "\n".join(lines)
    print(f"\n=== {name} ===\n{text}")
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
