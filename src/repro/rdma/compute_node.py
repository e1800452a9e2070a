"""The compute instance: CPU-rich, DRAM-poor.

A :class:`ComputeNode` models one of the paper's compute instances (§4
carves each server's 144 hyperthreads into 8 such instances).  It owns a
queue pair to the memory node and a simulated clock.  Its DRAM is bounded
by what the client keeps there — the meta-HNSW and the sub-HNSW cluster
cache, whose capacity is the bound (``DHnswClient.dram_used_bytes``).

Compute time is charged explicitly via :meth:`charge_compute`, using the
cost model's per-distance pricing, and tracked separately from network time
so Tables 1/2's three-way breakdown can be regenerated.
"""

from __future__ import annotations

from repro.rdma.clock import SimClock
from repro.rdma.memory_node import MemoryNode
from repro.rdma.network import CostModel
from repro.rdma.qp import QueuePair
from repro.rdma.stats import RdmaStats

__all__ = ["ComputeNode"]


class ComputeNode:
    """One compute instance connected to the disaggregated memory pool."""

    def __init__(self, memory_node: MemoryNode, cost_model: CostModel,
                 name: str = "compute0",
                 clock: SimClock | None = None) -> None:
        self.name = name
        self.cost_model = cost_model
        self.clock = clock if clock is not None else SimClock()
        self.stats = RdmaStats()
        self.qp = QueuePair(memory_node, self.clock, cost_model, self.stats)
        self.qp.connect()
        self.compute_time_us = 0.0
        self.wall_compute_s = 0.0

    # ------------------------------------------------------------------
    # Compute-time accounting
    # ------------------------------------------------------------------
    def charge_compute(self, num_distances: int, dim: int) -> float:
        """Charge search compute (distance evaluations) to the clock.

        Returns the simulated microseconds charged.
        """
        elapsed = self.cost_model.compute_us(num_distances, dim)
        self.clock.advance(elapsed)
        self.compute_time_us += elapsed
        return elapsed

    def charge_time(self, elapsed_us: float) -> float:
        """Charge arbitrary local CPU time (e.g. blob deserialization)."""
        self.clock.advance(elapsed_us)
        self.compute_time_us += elapsed_us
        return elapsed_us

    def record_wall_compute(self, seconds: float) -> None:
        """Accumulate *measured* wall-clock seconds of the sub-HNSW compute
        phase (executor scaling metric; separate from simulated time)."""
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        self.wall_compute_s += seconds

    def __repr__(self) -> str:
        return f"ComputeNode({self.name!r})"
