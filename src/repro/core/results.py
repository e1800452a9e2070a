"""Result containers returned by the d-HNSW client."""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

from repro.metrics.latency import LatencyBreakdown
from repro.rdma.stats import RdmaStats

if TYPE_CHECKING:  # pragma: no cover — serving imports this module
    from repro.serving.trace import TraceContext

__all__ = ["QueryResult", "BatchResult"]


@dataclasses.dataclass(frozen=True)
class QueryResult:
    """Top-k answer for one query: global ids and distances, ascending."""

    ids: np.ndarray
    distances: np.ndarray

    def __post_init__(self) -> None:
        if self.ids.shape != self.distances.shape:
            raise ValueError(
                f"ids shape {self.ids.shape} != distances shape "
                f"{self.distances.shape}")


@dataclasses.dataclass
class BatchResult:
    """Answers plus full accounting for one query batch.

    ``breakdown`` holds batch-total simulated time in the paper's three
    buckets; :meth:`per_query_breakdown` converts to the per-query averages
    reported in Tables 1 and 2.
    """

    results: list[QueryResult]
    breakdown: LatencyBreakdown
    rdma: RdmaStats
    clusters_fetched: int
    cache_hits: int
    duplicate_requests_pruned: int
    waves: int
    #: *Measured* wire time the loop hid behind routing and search (0
    #: with the look-ahead off):
    #: ``breakdown.total_us`` is the pipelined latency and this field the
    #: saving relative to a serial schedule
    #: (``serial_latency_per_query_us``).
    overlap_saved_us: float = 0.0
    #: Sub-HNSW distance evaluations performed for the batch.
    sub_evals: int = 0
    #: ClusterCache misses / evictions attributed to this batch (counted
    #: inside the cache; hits are ``cache_hits`` above), and the fetched
    #: clusters it streamed: searched in their wave, never admitted.
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_streamed: int = 0
    #: Per-stage cost attribution for this batch (route / plan / fetch /
    #: decode / compute / merge), populated by the serving engine.  None
    #: for results produced outside the staged path (e.g. shard merges).
    trace: "TraceContext | None" = None
    #: Per row, the client clock (µs) at which the row's answer was final:
    #: once its own last cluster was searched (and, for a hit, its tail
    #: word had landed).  Its max is the batch end.  None for results produced
    #: outside the staged path (e.g. shard merges): every row completes
    #: with the call.
    complete_us: np.ndarray | None = None

    @property
    def batch_size(self) -> int:
        """Number of queries answered."""
        return len(self.results)

    def per_query_breakdown(self) -> LatencyBreakdown:
        """Average simulated latency per query."""
        if not self.results:
            return LatencyBreakdown()
        return self.breakdown.scaled(1.0 / len(self.results))

    @property
    def round_trips_per_query(self) -> float:
        """Network round trips averaged over the batch (§4 reports
        3.547 / 0.896 / 4.75e-3 for the three schemes on SIFT1M)."""
        if not self.results:
            return 0.0
        return self.rdma.round_trips / len(self.results)

    @property
    def latency_per_query_us(self) -> float:
        """Mean end-to-end simulated latency per query."""
        if not self.results:
            return 0.0
        return self.breakdown.total_us / len(self.results)

    @property
    def serial_latency_per_query_us(self) -> float:
        """Per-query latency a strictly serial wave schedule would have
        charged: the pipelined total plus the overlap the scheduler hid."""
        if not self.results:
            return 0.0
        return ((self.breakdown.total_us + self.overlap_saved_us)
                / len(self.results))

    @property
    def throughput_qps(self) -> float:
        """Queries per simulated second."""
        if self.breakdown.total_us == 0.0:
            return float("inf")
        return len(self.results) / (self.breakdown.total_us / 1e6)

    def ids_list(self) -> list[list[int]]:
        """Result ids as plain lists (recall-metric input)."""
        return [[int(x) for x in result.ids] for result in self.results]
