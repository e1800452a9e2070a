"""The compute instance: CPU-rich, DRAM-poor.

A :class:`ComputeNode` models one of the paper's compute instances (§4
carves each server's 144 hyperthreads into 8 such instances).  It owns a
queue pair to the memory node, a simulated clock, and a bounded DRAM budget
that the d-HNSW engine spends on the cached meta-HNSW and the sub-HNSW
cluster cache.

Compute time is charged explicitly via :meth:`charge_compute`, using the
cost model's per-distance pricing, and tracked separately from network time
so Tables 1/2's three-way breakdown can be regenerated.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.rdma.clock import SimClock
from repro.rdma.memory_node import MemoryNode
from repro.rdma.network import CostModel
from repro.rdma.qp import QueuePair
from repro.rdma.stats import RdmaStats

__all__ = ["ComputeNode"]


class ComputeNode:
    """One compute instance connected to the disaggregated memory pool."""

    def __init__(self, memory_node: MemoryNode, cost_model: CostModel,
                 dram_budget_bytes: int, name: str = "compute0",
                 clock: SimClock | None = None) -> None:
        if dram_budget_bytes <= 0:
            raise ConfigError(
                f"dram_budget_bytes must be positive, got {dram_budget_bytes}")
        self.name = name
        self.cost_model = cost_model
        self.clock = clock if clock is not None else SimClock()
        self.stats = RdmaStats()
        self.qp = QueuePair(memory_node, self.clock, cost_model, self.stats)
        self.qp.connect()
        self.dram_budget_bytes = int(dram_budget_bytes)
        self._dram_used_bytes = 0
        self.compute_time_us = 0.0
        self.wall_compute_s = 0.0

    # ------------------------------------------------------------------
    # DRAM accounting
    # ------------------------------------------------------------------
    @property
    def dram_used_bytes(self) -> int:
        """Bytes of the DRAM budget currently reserved."""
        return self._dram_used_bytes

    @property
    def dram_free_bytes(self) -> int:
        """Remaining DRAM budget."""
        return self.dram_budget_bytes - self._dram_used_bytes

    def reserve_dram(self, nbytes: int, force: bool = False) -> bool:
        """Reserve ``nbytes`` of cache DRAM; False if it would overflow.

        ``force=True`` reserves past the budget — the cache uses it to
        defer eviction of pinned entries rather than free memory that a
        search is still reading (``dram_used_bytes`` then honestly
        reports the overshoot).
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if (not force
                and self._dram_used_bytes + nbytes > self.dram_budget_bytes):
            return False
        self._dram_used_bytes += nbytes
        return True

    def release_dram(self, nbytes: int) -> None:
        """Return ``nbytes`` to the budget."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if nbytes > self._dram_used_bytes:
            raise ValueError(
                f"releasing {nbytes} B but only {self._dram_used_bytes} B "
                f"are reserved")
        self._dram_used_bytes -= nbytes

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
        return (f"ComputeNode({self.name!r}, "
                f"dram={self._dram_used_bytes}/{self.dram_budget_bytes}B)")
