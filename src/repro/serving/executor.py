"""Executor stage: wave schedules to merged candidates.

Runs each wave's per-cluster query groups on the configured executor
(inline, thread pool, or the cluster-affine process pool) and drives the
two wave schedules: strictly serial, and the double-buffered pipeline that
hides wave ``i+1``'s wire time behind wave ``i``'s compute.  Owns the
worker pools, so shutting the executor down releases every OS resource the
serving path created.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.cache import CachedCluster
from repro.core.cluster_search import search_cluster_entry
from repro.core.merge import TopKMerger
from repro.core.query_planner import BatchPlan, Wave
from repro.core.search_pool import SearchPool
from repro.errors import LayoutError
from repro.serving.fetcher import Fetcher
from repro.serving.trace import TraceContext, span

__all__ = ["PlanExecution", "WaveExecutor", "overlap_saved"]


@dataclasses.dataclass
class PlanExecution:
    """What a wave schedule actually did (returned by ``execute_plan``)."""

    sub_evals: int = 0
    fetched: int = 0
    hit_count: int = 0
    #: Closed-form overlap estimate from the per-wave profiles (the
    #: pre-PR-4 formula, retained as a test oracle).
    overlap_oracle_us: float = 0.0
    #: True when deserialize + compute were charged per wave inside the
    #: pipelined loop; the engine must then skip its lump charges.
    charged_in_loop: bool = False
    #: Simulated µs already charged to the sub-HNSW bucket in-loop.
    charged_compute_us: float = 0.0
    pipeline_executed: bool = False


def overlap_saved(profiles: list[tuple[float, float]]) -> float:
    """Serial minus pipelined schedule length for the given waves.

    Pipelined: ``f_0 + sum(max(f_{i+1}, p_i)) + p_last`` — wave
    ``i``'s search overlaps wave ``i+1``'s fetch.
    """
    if len(profiles) < 2:
        return 0.0
    serial = sum(fetch + process for fetch, process in profiles)
    pipelined = profiles[0][0]
    for (_, process), (next_fetch, _) in zip(profiles, profiles[1:]):
        pipelined += max(process, next_fetch)
    pipelined += profiles[-1][1]
    return serial - pipelined


class WaveExecutor:
    """Searches planned waves on the configured worker pool."""

    def __init__(self, host, fetcher: Fetcher) -> None:
        self.host = host
        self.fetcher = fetcher
        # Search executors, created lazily on the first multi-worker wave.
        self._thread_pool: ThreadPoolExecutor | None = None
        self._search_pool: SearchPool | None = None

    # -- pool lifecycle --------------------------------------------------
    def close(self) -> None:
        """Shut down the worker pools (idempotent)."""
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=False, cancel_futures=True)
            self._thread_pool = None
        if self._search_pool is not None:
            self._search_pool.close()
            self._search_pool = None

    def _get_thread_pool(self) -> ThreadPoolExecutor:
        if self._thread_pool is None:
            self._thread_pool = ThreadPoolExecutor(
                max_workers=self.host.config.search_workers,
                thread_name_prefix=f"{self.host.node.name}-search")
        return self._thread_pool

    def _get_search_pool(self) -> SearchPool:
        if self._search_pool is None:
            self._search_pool = SearchPool(self.host.config.search_workers)
        return self._search_pool

    # -- schedules -------------------------------------------------------
    def execute_plan(self, plan: BatchPlan, queries: np.ndarray,
                     merger: TopKMerger, k: int, ef: int,
                     trace: TraceContext | None = None) -> PlanExecution:
        """Run a deduplicated wave schedule.

        With ``config.pipeline_waves`` set and at least two waves, the
        double-buffered executor actually overlaps wave ``i+1``'s fetch
        with wave ``i``'s search; otherwise waves run strictly serially
        (the pre-PR-4 schedule, numerically unchanged).
        """
        if self.host.config.pipeline_waves and len(plan.waves) >= 2:
            return self.execute_pipelined(plan, queries, merger, k, ef,
                                          trace)
        return self.execute_serial(plan, queries, merger, k, ef, trace)

    def execute_serial(self, plan: BatchPlan, queries: np.ndarray,
                       merger: TopKMerger, k: int, ef: int,
                       trace: TraceContext | None = None) -> PlanExecution:
        """Strictly serial wave schedule: fetch, then search, per wave."""
        execution = PlanExecution()
        for wave in plan.waves:
            entries = self.fetcher.load_wave(wave, execution, trace)
            execution.sub_evals += self.run_wave_compute(
                wave, entries, queries, merger, k, ef, trace)
        return execution

    def execute_pipelined(self, plan: BatchPlan, queries: np.ndarray,
                          merger: TopKMerger, k: int, ef: int,
                          trace: TraceContext | None = None
                          ) -> PlanExecution:
        """Double-buffered wave schedule: wave ``i+1``'s doorbell-batched
        fetch is issued asynchronously before wave ``i``'s search runs, so
        its wire time hides behind compute.

        Deserialize and compute are charged per wave *inside* the loop —
        that interleaving is what makes the transport's poll observe
        elapsed time — so ``charged_in_loop`` tells the engine to skip its
        lump charges.  The realized schedule is exactly the
        ``overlap_saved`` oracle's ``f_0 + Σ max(p_i, f_{i+1}) + p_last``;
        the oracle value is recorded for the acceptance test to compare
        against the measured ``overlapped_time_us``.
        """
        host = self.host
        fetcher = self.fetcher
        execution = PlanExecution(charged_in_loop=True,
                                  pipeline_executed=True)
        waves = plan.waves
        doorbell = host.policy.doorbell_batching
        profiles: list[tuple[float, float]] = []  # (fetch, process) per wave
        # Wave i+1's (token, extents) between its issue and its poll.
        pending: tuple | None = None

        try:
            for index, wave in enumerate(waves):
                sync_network_before = host.node.stats.network_time_us
                entries: dict[int, CachedCluster] = {}
                if wave.fetch_cluster_ids:
                    token, extents = pending or fetcher.issue_async(
                        list(wave.fetch_cluster_ids), doorbell)
                    pending = None
                    with span(trace, "fetch"):
                        payloads = fetcher.poll(token)
                    wave_fetch_us = token.elapsed_us
                else:
                    fetcher.load_hit_wave(wave, entries, execution, trace)
                    wave_fetch_us = (host.node.stats.network_time_us
                                     - sync_network_before)
                # Wave i's bytes are local: put wave i+1's READ on the wire
                # before decoding and searching wave i.
                if (index + 1 < len(waves)
                        and waves[index + 1].fetch_cluster_ids):
                    pending = fetcher.issue_async(
                        list(waves[index + 1].fetch_cluster_ids), doorbell)
                if wave.fetch_cluster_ids:
                    with span(trace, "decode"):
                        loaded = {
                            cid: fetcher.decoder.decode_extent(cid, offset,
                                                               payload)
                            for (cid, offset, _), payload
                            in zip(extents, payloads)}
                    execution.fetched += len(loaded)
                    for entry in loaded.values():
                        if host.policy.use_cluster_cache:
                            fetcher.cache_put(entry)
                    entries.update(loaded)
                deserialize_us = fetcher.decoder.drain_deserialize_us()
                with span(trace, "decode"):
                    charged = host.node.charge_time(deserialize_us)
                wave_evals = self.run_wave_compute(wave, entries, queries,
                                                   merger, k, ef, trace)
                with span(trace, "compute"):
                    charged += host.node.charge_compute(wave_evals,
                                                        host.meta.dim)
                execution.sub_evals += wave_evals
                execution.charged_compute_us += charged
                profiles.append((wave_fetch_us, charged))
        finally:
            if pending is not None:
                # An error (e.g. StaleReadError out of decode) escaped with
                # the prefetch in flight: retire it, or its copy-on-write
                # guard outlives the request.  Charges and records nothing.
                host.transport.abandon(pending[0])
        execution.overlap_oracle_us = overlap_saved(profiles)
        return execution

    def execute_naive(self, required: list[list[int]], queries: np.ndarray,
                      merger: TopKMerger, k: int, ef: int,
                      trace: TraceContext | None = None) -> PlanExecution:
        """Naive d-HNSW: one READ round trip per (query, cluster) pair."""
        execution = PlanExecution()
        for query_index, cluster_ids in enumerate(required):
            for cid in cluster_ids:
                entry = self.fetcher.fetch_clusters(
                    [cid], False, trace)[cid]
                execution.fetched += 1
                with span(trace, "compute"):
                    output = search_cluster_entry(
                        entry, queries[query_index:query_index + 1], k, ef)
                execution.sub_evals += output.evals
                merger.add(query_index, output.gids[0], output.dists[0])
        return execution

    # -- per-wave compute -------------------------------------------------
    def run_wave_compute(self, wave: Wave,
                         entries: dict[int, CachedCluster],
                         queries: np.ndarray, merger: TopKMerger, k: int,
                         ef: int,
                         trace: TraceContext | None = None) -> int:
        """Search a wave's per-cluster query groups on the configured
        executor; merge candidates in deterministic cluster order.

        Tasks are the pure :func:`search_cluster_entry` — each returns
        private per-query candidate arrays, so nothing shared is mutated
        off the main thread and results are bit-identical at every worker
        count.  Returns the wave's distance evaluations.
        """
        host = self.host
        with span(trace, "compute"):
            tasks: list[tuple[int, CachedCluster, list[int]]] = []
            for cid, query_indices in wave.cluster_groups():
                entry = entries.get(cid)
                if entry is None:
                    entry = host.cache.peek(cid)
                if entry is None:
                    raise LayoutError(
                        f"planned cluster {cid} missing during wave")
                tasks.append((cid, entry, query_indices))
            # Pin for the duration of the search: a concurrent request's
            # cache admission must not spill these entries (their vector
            # stores may be zero-copy views whose DRAM accounting would
            # be freed mid-search), and a concurrent invalidation must
            # materialize rather than leave them over rewritten memory.
            for _, entry, _ in tasks:
                host.cache.pin(entry)
            try:
                workers = host.config.search_workers
                started = time.perf_counter()
                if workers > 1 and len(tasks) > 1:
                    if host.config.search_executor == "process":
                        outputs = self._get_search_pool().run_wave(
                            [(cid,
                              (entry.metadata_version, entry.overflow_tail),
                              entry, queries[query_indices], k, ef)
                             for cid, entry, query_indices in tasks])
                    else:
                        pool = self._get_thread_pool()
                        futures = [pool.submit(search_cluster_entry, entry,
                                               queries[query_indices], k, ef)
                                   for _, entry, query_indices in tasks]
                        outputs = [future.result() for future in futures]
                else:
                    outputs = [search_cluster_entry(entry,
                                                    queries[query_indices],
                                                    k, ef)
                               for _, entry, query_indices in tasks]
            finally:
                for _, entry, _ in tasks:
                    host.cache.unpin(entry)
            host.node.record_wall_compute(time.perf_counter() - started)
            wave_evals = 0
            for (_, _, query_indices), output in zip(tasks, outputs):
                wave_evals += output.evals
                for row, query_index in enumerate(query_indices):
                    merger.add(query_index, output.gids[row],
                               output.dists[row])
        return wave_evals
