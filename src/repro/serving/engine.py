"""The serving engine: stage composition behind ``DHnswClient``.

Composes the five stages — :class:`~repro.serving.planner.Planner`,
:class:`~repro.serving.fetcher.Fetcher`,
:class:`~repro.serving.decoder.Decoder`,
:class:`~repro.serving.executor.WaveExecutor`,
:class:`~repro.serving.merger.Merger` — into the batched query path the
client exposes.  The engine holds no index state of its own: everything it
needs (metadata, cache, transport, cost model, policy) lives on the
client's :class:`~repro.core.context.ClientContext` and is read late, so
decorating ``ctx.transport`` after construction (fault injection,
retries) affects every stage immediately.

A caller that routed its rows ahead — the front door routes each request
at its admission — hands the routes to the next ``search_batch`` through
:meth:`ServingEngine.routed`, so ``search_batch`` keeps its signature and
no row is routed twice.
"""

from __future__ import annotations

import collections
import contextlib
from typing import Callable, Iterator

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

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.decoder = Decoder(ctx)
        self.fetcher = Fetcher(ctx, self.decoder)
        self.planner = Planner(ctx, self.fetcher)
        self.executor = WaveExecutor(ctx, self.fetcher)
        self.merger = Merger()
        #: Routes handed to the next ``search_batch`` (:meth:`routed`).
        self._routed: tuple[list[list[int]], float] | None = None

    @contextlib.contextmanager
    def routed(self, routes: list[list[int]],
               routing_us: float) -> Iterator[None]:
        """Hand the ``search_batch`` call made inside the block its rows'
        routes, already charged to the clock (``routing_us`` in all):
        it plans from them at once, so its first READ leaves at
        dispatch, and bills ``routing_us`` to the batch's meta bucket."""
        self._routed = (routes, routing_us)
        try:
            yield
        finally:
            self._routed = None

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
        routed, self._routed = self._routed, None
        try:
            return self._search_batch_once(queries, k, ef_search, filter_fn,
                                           routed=routed)
        except StaleReadError:
            self.ctx.refresh_metadata()
            # The first attempt already recorded the batch's accesses.
            return self._search_batch_once(queries, k, ef_search, filter_fn,
                                           record_access=False,
                                           routed=routed)

    def _search_batch_once(self, queries: np.ndarray, k: int,
                           ef_search: int | None = None,
                           filter_fn: "Callable[[int], bool] | None" = None,
                           record_access: bool = True,
                           routed: tuple[list[list[int]], float] | None
                           = None) -> BatchResult:
        ctx = self.ctx
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim not in (1, 2) or queries.shape[-1] != ctx.meta.dim:
            raise DimensionMismatchError(ctx.meta.dim, queries.shape)
        queries = np.atleast_2d(queries)
        NonFiniteVectorError.check(queries, "query")
        if isinstance(k, (bool, np.bool_)) or not isinstance(
                k, (int, np.integer)) or k < 1:
            raise ValueError(f"k must be an integer >= 1, got {k!r}")
        k = int(k)
        ef = self.resolve_ef(k, ef_search)
        if routed is not None and len(routed[0]) != len(queries):
            raise ValueError(f"{len(routed[0])} routes handed in for "
                             f"{len(queries)} queries")

        trace = TraceContext(ctx.next_request_id(), ctx.node.clock,
                             ctx.node.stats)
        before = ctx.node.stats.snapshot()
        breakdown = LatencyBreakdown()
        ctx.refresh_metadata()

        merger = self.merger.create(len(queries), k, filter_fn)
        cache_counters_before = ctx.cache.counters()
        streamed_before = ctx.cache.streamed
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
        if routed is None:
            required = self.planner.route(queries, breakdown, trace,
                                          first_wave)
        else:
            required, routing_us = routed
            breakdown.meta_hnsw_us += routing_us
            first_wave(required)
            loop.start(len(queries))
        if record_access:
            # Once per batch, before anything reads it: every routed
            # cluster's frequency, weighted by the queries probing it —
            # with large batches nearly every cluster appears in every
            # batch, and presence alone cannot tell a Zipf head cluster
            # from the tail.  Cache admission and eviction rank by it.
            now_us = ctx.node.clock.now_us
            probes = collections.Counter(cid for row in required
                                         for cid in row)
            for cid, weight in probes.items():
                ctx.cache.record_access(cid, now_us, weight=weight)

        # --- cluster loading + sub-HNSW search -------------------------
        execution = loop.run()
        # The loop charged decode + search to the clock itself; both
        # belong to the sub-HNSW bucket.
        breakdown.sub_hnsw_us += execution.sub_hnsw_us

        # --- finalize ---------------------------------------------------
        results = self.merger.finalize(merger, len(queries), k, filter_fn,
                                       trace)
        rdma_delta = ctx.node.stats.delta(before)
        breakdown.network_us += rdma_delta.network_time_us
        # Fault-path attribution: which request paid for retries and
        # replica failovers (counters are this request's deltas).
        trace.record_event("faults_injected", rdma_delta.faults_injected)
        trace.record_event("retries", rdma_delta.retries)
        trace.record_event("backoff_us", rdma_delta.backoff_time_us)
        trace.record_event("failovers", rdma_delta.failovers)
        _, misses_before, evictions_before = cache_counters_before
        _, misses_after, evictions_after = ctx.cache.counters()
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
                           cache_streamed=ctx.cache.streamed - streamed_before,
                           trace=trace, complete_us=execution.complete_us)
