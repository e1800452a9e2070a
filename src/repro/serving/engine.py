"""The serving engine: stage composition behind ``DHnswClient``.

Composes the five stages — :class:`~repro.serving.planner.Planner`,
:class:`~repro.serving.fetcher.Fetcher`,
:class:`~repro.serving.decoder.Decoder`,
:class:`~repro.serving.executor.WaveExecutor`,
:class:`~repro.serving.merger.Merger` — into the batched query path the
client exposes.  The engine holds no index state of its own: everything it
needs (metadata, cache, transport, cost model, policy) lives on the host
client and is read late, so decorating ``host.transport`` after
construction (fault injection, retries) affects every stage immediately.
"""

from __future__ import annotations

import collections
from typing import Callable

import numpy as np

from repro.core.results import BatchResult
from repro.errors import (
    DimensionMismatchError,
    NonFiniteVectorError,
    StaleReadError,
)
from repro.metrics.latency import LatencyBreakdown
from repro.serving.decoder import Decoder
from repro.serving.executor import WaveExecutor
from repro.serving.fetcher import Fetcher
from repro.serving.merger import Merger
from repro.serving.planner import Planner
from repro.serving.trace import TraceContext

__all__ = ["ServingEngine"]


class ServingEngine:
    """Staged execution pipeline for one compute instance."""

    def __init__(self, host) -> None:
        self.host = host
        self.decoder = Decoder(host)
        self.fetcher = Fetcher(host, self.decoder)
        self.planner = Planner(host, self.fetcher)
        self.executor = WaveExecutor(host, self.fetcher)
        self.merger = Merger(host)
        self._request_counter = 0

    # -- request entry ----------------------------------------------------
    @staticmethod
    def resolve_ef(k: int, ef_search: int | None) -> int:
        """Beam width for the batch: the explicit arg, else the paper's
        ``2k`` rule — never below ``k``.  It is each row's lead-probe
        beam; the executor narrows the later probes below it
        (:func:`~repro.serving.executor.probe_ef`).  An explicit width
        must be an integer (NumPy's count; a bool, a NaN or a fraction
        does not)."""
        if ef_search is None:
            return 2 * k
        if isinstance(ef_search, (bool, np.bool_)) or not isinstance(
                ef_search, (int, np.integer)):
            raise ValueError(f"ef_search must be an integer, got "
                             f"{ef_search!r}")
        return max(ef_search, k)

    def search_batch(self, queries: np.ndarray, k: int,
                     ef_search: int | None = None,
                     filter_fn: "Callable[[int], bool] | None" = None
                     ) -> BatchResult:
        """Answer a batch of queries with full latency/traffic accounting
        (``DHnswClient.search_batch`` is a façade over this method).

        Epoch consistency: the batch is planned against the metadata
        version pinned by its entry refresh.  If a concurrent shadow
        rebuild's cutover seals an extent out from under the plan
        (:class:`StaleReadError`), the batch re-pins to the new epoch
        and re-plans once rather than decoding retired offsets; a second
        failure propagates.
        """
        try:
            return self._search_batch_once(queries, k, ef_search, filter_fn)
        except StaleReadError:
            self.host.refresh_metadata()
            # The first attempt already recorded the batch's accesses.
            return self._search_batch_once(queries, k, ef_search, filter_fn,
                                           record_access=False)

    def _search_batch_once(self, queries: np.ndarray, k: int,
                           ef_search: int | None = None,
                           filter_fn: "Callable[[int], bool] | None" = None,
                           record_access: bool = True) -> BatchResult:
        host = self.host
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim not in (1, 2) or queries.shape[-1] != host.meta.dim:
            raise DimensionMismatchError(host.meta.dim, queries.shape)
        queries = np.atleast_2d(queries)
        NonFiniteVectorError.check(queries, "query")
        if isinstance(k, (bool, np.bool_)) or not isinstance(
                k, (int, np.integer)) or k < 1:
            raise ValueError(f"k must be an integer >= 1, got {k!r}")
        k = int(k)
        ef = self.resolve_ef(k, ef_search)

        self._request_counter += 1
        trace = TraceContext(self._request_counter, host.node.clock,
                             host.node.stats)
        before = host.node.stats.snapshot()
        breakdown = LatencyBreakdown()
        host.refresh_metadata()

        merger = self.merger.create(len(queries), k, filter_fn)
        cache_counters_before = host.cache.counters()
        streamed_before = host.cache.streamed
        plan = loop = None

        def first_wave(routes: list[list[int]]):
            # The plan needs only the routes and the cache, so the loop
            # can post its first READ mid-routing.
            nonlocal plan, loop
            plan = self.planner.plan(routes, trace)
            loop = self.executor.ready_list(plan, queries, merger, k, ef,
                                            trace)
            return loop.first_rows, lambda: loop.start(loop.first_rows)

        # --- meta-HNSW routing (local, cached) -------------------------
        required = self.planner.route(queries, breakdown, trace, first_wave)
        if record_access:
            # Once per batch, before anything reads it: every routed
            # cluster's frequency, weighted by the queries probing it —
            # with large batches nearly every cluster appears in every
            # batch, and presence alone cannot tell a Zipf head cluster
            # from the tail.  Cache admission and eviction rank by it.
            now_us = host.node.clock.now_us
            probes = collections.Counter(cid for row in required
                                         for cid in row)
            for cid, weight in probes.items():
                host.cache.record_access(cid, now_us, weight=weight)

        # --- cluster loading + sub-HNSW search -------------------------
        execution = loop.run()
        # The loop charged decode + search to the clock itself; both
        # belong to the sub-HNSW bucket.
        breakdown.sub_hnsw_us += execution.sub_hnsw_us

        # --- finalize ---------------------------------------------------
        results = self.merger.finalize(merger, len(queries), k, filter_fn,
                                       trace)
        rdma_delta = host.node.stats.delta(before)
        breakdown.network_us += rdma_delta.network_time_us
        # Fault-path attribution: which request paid for retries and
        # replica failovers (counters are this request's deltas).
        trace.record_event("faults_injected", rdma_delta.faults_injected)
        trace.record_event("retries", rdma_delta.retries)
        trace.record_event("backoff_us", rdma_delta.backoff_time_us)
        trace.record_event("failovers", rdma_delta.failovers)
        _, misses_before, evictions_before = cache_counters_before
        _, misses_after, evictions_after = host.cache.counters()
        return BatchResult(results=results, breakdown=breakdown,
                           rdma=rdma_delta,
                           clusters_fetched=execution.fetched,
                           cache_hits=execution.hit_count,
                           duplicate_requests_pruned=(
                               plan.duplicate_requests_pruned),
                           waves=len(plan.waves),
                           overlap_saved_us=rdma_delta.overlapped_time_us,
                           sub_evals=execution.sub_evals,
                           cache_misses=misses_after - misses_before,
                           cache_evictions=evictions_after - evictions_before,
                           cache_streamed=host.cache.streamed - streamed_before,
                           trace=trace, complete_us=execution.complete_us)
