"""Executor stage: one loop runs every wave schedule — the deduplicated
plan serially (paper Tables 1-2), the same plan with wave ``i+1``'s READ
hidden behind wave ``i``'s search, and the naive one-pair-per-wave plan.
Waves are searched inline or on the worker processes this stage owns.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.core.cache import CachedCluster
from repro.core.cluster_search import search_cluster_entry
from repro.core.merge import TopKMerger
from repro.core.query_planner import BatchPlan, Wave
from repro.core.search_pool import SearchPool
from repro.errors import LayoutError
from repro.serving.fetcher import Fetcher
from repro.serving.trace import TraceContext, span

__all__ = ["PlanExecution", "WaveExecutor"]


@dataclasses.dataclass
class PlanExecution:
    """What a wave schedule actually did (returned by ``execute_plan``)."""

    sub_evals: int = 0
    fetched: int = 0
    hit_count: int = 0
    #: Simulated µs charged for decode + search (the sub-HNSW bucket).
    sub_hnsw_us: float = 0.0
    #: Decode cost of admitted extents, not yet charged to the clock.
    decode_backlog_us: float = 0.0
    #: True when wave ``i+1``'s READ was in flight behind wave ``i``.
    pipeline_executed: bool = False
    #: Per row, the client clock after the wave that serviced the row's
    #: last ``(query, cluster)`` pair; None when the schedule charged
    #: nothing wave by wave (every row then completes with the batch).
    complete_us: np.ndarray | None = dataclasses.field(default=None,
                                                       compare=False)


class WaveExecutor:
    """Searches planned waves inline or on ``config.search_workers``
    worker processes."""

    def __init__(self, host, fetcher: Fetcher) -> None:
        self.host = host
        self.fetcher = fetcher
        # Created lazily on the first multi-worker wave.
        self._search_pool: SearchPool | None = None

    # -- pool lifecycle --------------------------------------------------
    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        if self._search_pool is not None:
            self._search_pool.close()
            self._search_pool = None

    def _get_search_pool(self) -> SearchPool:
        if self._search_pool is None:
            self._search_pool = SearchPool(self.host.config.search_workers)
        return self._search_pool

    # -- the schedule -----------------------------------------------------
    def execute_plan(self, plan: BatchPlan, queries: np.ndarray,
                     merger: TopKMerger, k: int, ef: int,
                     trace: TraceContext | None = None) -> PlanExecution:
        """Take wave ``i``'s bytes, put wave ``i+1``'s READ on the wire,
        then decode, admit and search wave ``i``.

        The look-ahead needs ``config.pipeline_waves``, a deduplicated
        plan (naive's one blocking fetch per pair *is* that baseline)
        and two waves; the schedule is then
        ``f_0 + Σ max(p_i, f_{i+1}) + p_last``, decode and search being
        charged per wave so the poll observes them as elapsed time
        (hidden wire time lands in ``RdmaStats.overlapped_time_us``) —
        and so a row's answer is final, and stamped, at the end of the
        last wave that services it (``PlanExecution.complete_us``).
        Without it they are charged once, after the last wave.
        """
        host, fetcher, waves = self.host, self.fetcher, plan.waves
        doorbell = host.policy.doorbell_batching
        look_ahead = (host.config.pipeline_waves
                      and host.policy.deduplicate_batch and len(waves) >= 2)
        execution = PlanExecution(pipeline_executed=look_ahead)
        # Wave i+1's (token, extents) between its issue and its poll.
        pending: tuple | None = None
        upcoming = [wave.fetch_cluster_ids for wave in waves[1:]] + [()]
        wave_end_us: list[float] = []
        try:
            for wave, next_ids in zip(waves, upcoming):
                fetch_ids = wave.fetch_cluster_ids
                if not fetch_ids:
                    entries = fetcher.take_hits(wave, execution, trace)
                elif look_ahead:
                    token, extents = pending or fetcher.issue_async(
                        fetch_ids, doorbell)
                    pending = None
                    payloads = fetcher.poll(token, trace)
                else:
                    extents, payloads = fetcher.read(fetch_ids, doorbell,
                                                     trace)
                if look_ahead and next_ids:
                    pending = fetcher.issue_async(next_ids, doorbell)
                if fetch_ids:
                    entries = fetcher.admit(extents, payloads, execution,
                                            trace)
                wave_evals = self.run_wave_compute(wave, entries, queries,
                                                   merger, k, ef, trace)
                execution.sub_evals += wave_evals
                if look_ahead:
                    decode_us = self.charge_decode(execution, trace)
                    execution.sub_hnsw_us += decode_us + self.charge_search(
                        wave_evals, trace)
                    wave_end_us.append(host.node.clock.now_us)
        finally:
            if pending is not None:
                # An error escaped with the prefetch in flight: retire it
                # uncharged, or its copy-on-write guard outlives the request.
                host.transport.abandon(pending[0])
        if look_ahead:
            # A row in no wave (all its clusters cold) ends with the last.
            last_wave = [len(waves) - 1] * len(queries)
            for index, wave in enumerate(waves):
                for row, _ in wave.serviced:
                    last_wave[row] = index
            execution.complete_us = np.asarray(wave_end_us)[last_wave]
        else:
            # Nothing in flight had to observe time wave by wave: one search
            # charge, then the decodes.  Per-wave charges would move the last
            # float64 digit of the recorded tables: Σ(evals_w·c) ≠ (Σ evals_w)·c.
            search_us = self.charge_search(execution.sub_evals, trace)
            execution.sub_hnsw_us = search_us + self.charge_decode(
                execution, trace)
        return execution

    def charge_decode(self, execution: PlanExecution,
                      trace: TraceContext | None) -> float:
        """Charge the decode backlog to the clock; returns the µs."""
        backlog = execution.decode_backlog_us
        execution.decode_backlog_us = 0.0
        with span(trace, "decode"):
            return self.host.node.charge_time(backlog)

    def charge_search(self, evals: int, trace: TraceContext | None) -> float:
        """Charge ``evals`` distance evaluations; returns the µs."""
        with span(trace, "compute"):
            return self.host.node.charge_compute(evals, self.host.meta.dim)

    # -- per-wave compute -------------------------------------------------
    def run_wave_compute(self, wave: Wave, entries: dict[int, CachedCluster],
                         queries: np.ndarray, merger: TopKMerger, k: int,
                         ef: int, trace: TraceContext | None = None) -> int:
        """Search a wave's per-cluster query groups, inline or on the
        worker pool, merge in deterministic cluster order, return the evals.

        Tasks are the pure :func:`search_cluster_entry`: nothing shared is
        mutated outside this process, so every worker count is
        bit-identical.
        """
        host = self.host
        with span(trace, "compute"):
            tasks: list[tuple[int, CachedCluster, list[int]]] = []
            for cid, query_indices in wave.cluster_groups():
                entry = entries.get(cid) or host.cache.peek(cid)
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
                started = time.perf_counter()
                if host.config.search_workers > 1 and len(tasks) > 1:
                    outputs = self._get_search_pool().run_wave(
                        [(cid, (entry.extent_epoch, entry.overflow_tail),
                          entry, queries[query_indices], k, ef)
                         for cid, entry, query_indices in tasks])
                else:
                    outputs = [search_cluster_entry(entry,
                                                    queries[query_indices],
                                                    k, ef)
                               for _, entry, query_indices in tasks]
            finally:
                for _, entry, _ in tasks:
                    host.cache.unpin(entry)
            host.node.record_wall_compute(time.perf_counter() - started)
            for (_, _, query_indices), output in zip(tasks, outputs):
                for row, query_index in enumerate(query_indices):
                    merger.add(query_index, output.gids[row],
                               output.dists[row])
        return sum(output.evals for output in outputs)
