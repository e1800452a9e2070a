"""The pre-seam monolithic wave loop, kept test-side as a schedule oracle.

A faithful transcription of the serving loop as it lived inside
``DHnswClient`` before the staged decomposition: one function per former
private method, operating directly on the client.  ``install(client)``
swaps it in for the staged ``WaveExecutor`` schedules so
``test_engine_equivalence.py`` can run the same batches through both and
assert bit-identical results, sub-evaluations, RDMA counters, and cache
counters.

It is *not* an independent implementation: it shares the client's fetcher,
decoder (memoization), cache and worker pools with the staged path —
those are substrate, not orchestration.  What it pins is the *schedule*:
the exact verb order, charge order, and cache interaction of the original
three loops (serial, pipelined, naive), which ``src/`` now runs as one.
The pieces of the monolith that have left ``src/`` for good live here with
it: its ``PlanExecution`` report, the decoder's deserialize side channel
(``_DeserializeLedger``), the engine's lump charges (in ``install``) and
the ``overlap_saved`` closed form.  It records no trace spans, so an
installed client is single-request only; it pins each wave's entries
for their search as ``src/`` does, because the cache hands a streamed
entry's DRAM back when its last pin drops.

Per-row completion stamps are derived here the oracle's own way — a
countdown of each row's unserviced ``(query, cluster)`` pairs against the
clock read at every wave's end — where ``src/`` indexes a per-wave clock
array by each row's last wave.
"""

from __future__ import annotations

import collections
import dataclasses
import time

import numpy as np

from repro.core.cache import CachedCluster
from repro.core.cluster_search import search_cluster_entry
from repro.core.merge import TopKMerger
from repro.core.query_planner import BatchPlan, Wave
from repro.errors import LayoutError
from repro.serving import executor as staged


@dataclasses.dataclass
class PlanExecution:
    """What the monolith's schedules reported back to its engine, which
    then posted the charges the schedule had not (``charged_in_loop``)."""

    sub_evals: int = 0
    fetched: int = 0
    hit_count: int = 0
    #: Closed-form overlap estimate from the per-wave profiles.
    overlap_oracle_us: float = 0.0
    #: True when deserialize + compute were charged per wave inside the
    #: pipelined loop; the engine then skipped its lump charges.
    charged_in_loop: bool = False
    #: Simulated µs already charged to the sub-HNSW bucket in-loop.
    charged_compute_us: float = 0.0
    pipeline_executed: bool = False
    #: Per row: the clock when its last pair was serviced (pipelined
    #: schedule only; the serial and naive ones release with the batch).
    complete_us: np.ndarray | None = None


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


class _DeserializeLedger:
    """The monolith's decoder side channel: every ``decode_extent`` adds
    the simulated deserialize cost of the payloads it was handed (and
    ``_decode`` that of a short read's delta ring); the schedules drain
    it."""

    def __init__(self, decoder) -> None:
        self.pending_us = 0.0
        decode_extent = decoder.decode_extent
        self.cost_model = decoder.host.cost_model

        def counted(cluster_id, ranges, payloads):
            self.add(sum(len(payload) for payload in payloads))
            return decode_extent(cluster_id, ranges, payloads)

        decoder.decode_extent = counted
        decoder.deserialize_ledger = self

    def add(self, nbytes: int) -> None:
        self.pending_us += self.cost_model.deserialize_us(nbytes)

    def drain(self) -> float:
        pending, self.pending_us = self.pending_us, 0.0
        return pending


def install(client) -> list[PlanExecution]:
    """Replace ``client``'s staged wave loop with this one.

    An instance attribute on the executor — the same seam the spine's
    tracer wraps — so the engine's ``_search_batch_once`` runs unchanged
    around it.  The replacement dispatches on the scheme as the monolith's
    engine did (the naive schedule reads the ``(query, cluster)`` pairs
    back out of the one-pair-per-wave plan), then posts the lump charges
    that engine posted for schedules that did not charge in-loop.
    Returns the list each batch's oracle-side execution is appended to.
    """
    ledger = _DeserializeLedger(client.engine.decoder)
    executions: list[PlanExecution] = []

    def run(plan, queries, merger, k, ef, trace=None):
        # A torn attempt (``StaleReadError``) leaves decodes it never
        # charged; the retry must not inherit them (src fixed this in the
        # staged loop, where the backlog lives on the attempt's execution).
        ledger.drain()
        if client.policy.deduplicate_batch:
            execution = execute_plan(client, plan, queries, merger, k, ef)
        else:
            required: list[list[int]] = [[] for _ in queries]
            for wave in plan.waves:
                (query_index, cluster_id), = wave.serviced
                required[query_index].append(cluster_id)
            execution = execute_naive(client, required, queries, merger,
                                      k, ef)
        executions.append(execution)
        if execution.charged_in_loop:
            sub_hnsw_us = execution.charged_compute_us
            ledger.drain()
        else:
            sub_hnsw_us = client.node.charge_compute(execution.sub_evals,
                                                     client.meta.dim)
            sub_hnsw_us += client.node.charge_time(ledger.drain())
        return staged.PlanExecution(
            sub_evals=execution.sub_evals, fetched=execution.fetched,
            hit_count=execution.hit_count, sub_hnsw_us=sub_hnsw_us,
            pipeline_executed=execution.pipeline_executed,
            complete_us=execution.complete_us)

    client.engine.executor.execute_plan = run
    return executions


def execute_plan(host, plan: BatchPlan, queries: np.ndarray,
                 merger: TopKMerger, k: int, ef: int) -> PlanExecution:
    """Run a deduplicated wave schedule exactly as the monolith did."""
    if host.config.pipeline_waves and len(plan.waves) >= 2:
        return execute_plan_pipelined(host, plan, queries, merger, k, ef)
    return execute_plan_serial(host, plan, queries, merger, k, ef)


def execute_plan_serial(host, plan: BatchPlan, queries: np.ndarray,
                        merger: TopKMerger, k: int, ef: int) -> PlanExecution:
    """Strictly serial wave schedule: fetch, then search, per wave."""
    execution = PlanExecution()
    for wave in plan.waves:
        entries = _load_wave(host, wave, execution)
        execution.sub_evals += _run_wave_compute(
            host, wave, entries, queries, merger, k, ef)
    return execution


def execute_plan_pipelined(host, plan: BatchPlan, queries: np.ndarray,
                           merger: TopKMerger, k: int,
                           ef: int) -> PlanExecution:
    """Double-buffered wave schedule, transcription of the monolith."""
    execution = PlanExecution(charged_in_loop=True, pipeline_executed=True)
    waves = plan.waves
    doorbell = host.policy.doorbell_batching
    profiles: list[tuple[float, float]] = []
    pending: tuple | None = None
    pending_index = -1
    decoder = host.engine.decoder
    unserviced = collections.Counter(
        row for wave in waves for row, _ in wave.serviced)
    complete_us = np.full(len(queries), np.nan)

    def issue(index: int) -> tuple:
        descriptors, extents = _extent_descriptors(
            host, list(waves[index].fetch_cluster_ids))
        token = host.transport.read_batch_async(descriptors,
                                                doorbell=doorbell)
        return token, extents

    for index, wave in enumerate(waves):
        sync_network_before = host.node.stats.network_time_us
        entries: dict[int, CachedCluster] = {}
        if wave.fetch_cluster_ids:
            token, extents = (pending if pending_index == index
                              else issue(index))
            payloads = host.transport.poll(token)
            wave_fetch_us = token.elapsed_us
            if (index + 1 < len(waves)
                    and waves[index + 1].fetch_cluster_ids):
                pending, pending_index = issue(index + 1), index + 1
            loaded = _decode(host, extents, payloads)
            execution.fetched += len(loaded)
            if host.policy.use_cluster_cache:
                host.engine.fetcher.offer(loaded.values())
            entries.update(loaded)
        else:
            _load_hit_wave(host, wave, entries, execution)
            wave_fetch_us = (host.node.stats.network_time_us
                             - sync_network_before)
            if (index + 1 < len(waves)
                    and waves[index + 1].fetch_cluster_ids):
                pending, pending_index = issue(index + 1), index + 1
        deserialize_us = decoder.deserialize_ledger.drain()
        charged = host.node.charge_time(deserialize_us)
        wave_evals = _run_wave_compute(host, wave, entries, queries,
                                       merger, k, ef)
        charged += host.node.charge_compute(wave_evals, host.meta.dim)
        execution.sub_evals += wave_evals
        execution.charged_compute_us += charged
        profiles.append((wave_fetch_us, charged))
        for row, _ in wave.serviced:
            unserviced[row] -= 1
            if not unserviced[row]:
                complete_us[row] = host.node.clock.now_us
    # A row no wave serviced is released with the last one.
    complete_us[np.isnan(complete_us)] = host.node.clock.now_us
    execution.complete_us = complete_us
    execution.overlap_oracle_us = overlap_saved(profiles)
    return execution


def execute_naive(host, required: list[list[int]], queries: np.ndarray,
                  merger: TopKMerger, k: int, ef: int) -> PlanExecution:
    """Naive d-HNSW: one READ round trip per (query, cluster) pair."""
    execution = PlanExecution()
    for query_index, cluster_ids in enumerate(required):
        for cid in cluster_ids:
            entry = _fetch_clusters(host, [cid], doorbell=False)[cid]
            execution.fetched += 1
            output = search_cluster_entry(
                entry, queries[query_index:query_index + 1], k, ef)
            execution.sub_evals += output.evals
            merger.add(query_index, output.gids[0], output.dists[0])
    return execution


# ----------------------------------------------------------------------
# Former private helpers of the monolith
# ----------------------------------------------------------------------
def _extent_descriptors(host, cluster_ids: list[int]):
    return host.engine.fetcher.extent_descriptors(cluster_ids)


def _decode(host, extents, payloads) -> dict[int, CachedCluster]:
    """Decode one READ's extents; entries whose slots ran short of the
    tail word are topped up by the fetcher's delta ring (substrate, like
    the descriptors), its bytes deserialized like any others."""
    decoder = host.engine.decoder
    parts = iter(payloads)
    loaded = {cid: decoder.decode_extent(cid, ranges,
                                         [next(parts) for _ in ranges])
              for cid, ranges in extents}
    decoder.deserialize_ledger.add(
        host.engine.fetcher.top_up(loaded.values()))
    return loaded


def _fetch_clusters(host, cluster_ids: list[int],
                    doorbell: bool) -> dict[int, CachedCluster]:
    descriptors, extents = _extent_descriptors(host, cluster_ids)
    payloads = host.transport.read_batch(descriptors, doorbell=doorbell)
    return _decode(host, extents, payloads)


def _load_wave(host, wave: Wave,
               execution: PlanExecution) -> dict[int, CachedCluster]:
    entries: dict[int, CachedCluster] = {}
    if wave.fetch_cluster_ids:
        loaded = _fetch_clusters(host, list(wave.fetch_cluster_ids),
                                 host.policy.doorbell_batching)
        execution.fetched += len(loaded)
        if host.policy.use_cluster_cache:
            host.engine.fetcher.offer(loaded.values())
        entries.update(loaded)
    else:
        _load_hit_wave(host, wave, entries, execution)
    return entries


def _load_hit_wave(host, wave: Wave, entries: dict[int, CachedCluster],
                   execution: PlanExecution) -> None:
    hit_ids = sorted({cid for _, cid in wave.serviced})
    if hit_ids:
        host.engine.fetcher.validate_cached(hit_ids)
    for cid in hit_ids:
        entry = host.cache.get(cid)
        if entry is None:
            entry = _fetch_clusters(
                host, [cid], host.policy.doorbell_batching)[cid]
            execution.fetched += 1
            if host.policy.use_cluster_cache:
                host.engine.fetcher.offer([entry], count_miss=False)
        else:
            execution.hit_count += 1
        entries[cid] = entry


def _run_wave_compute(host, wave: Wave, entries: dict[int, CachedCluster],
                      queries: np.ndarray, merger: TopKMerger, k: int,
                      ef: int) -> int:
    tasks: list[tuple[int, CachedCluster, list[int]]] = []
    for cid, query_indices in wave.cluster_groups():
        entry = entries.get(cid)
        if entry is None:
            entry = host.cache.peek(cid)
        if entry is None:
            raise LayoutError(f"planned cluster {cid} missing during wave")
        tasks.append((cid, entry, query_indices))
    workers = host.config.search_workers
    executor = host.engine.executor
    for _, entry, _ in tasks:
        host.cache.pin(entry)
    started = time.perf_counter()
    if workers > 1 and len(tasks) > 1:
        outputs = executor._get_search_pool().run_wave(
            [(cid, (entry.extent_epoch, entry.overflow_tail),
              entry, queries[query_indices], k, ef)
             for cid, entry, query_indices in tasks])
    else:
        outputs = [search_cluster_entry(entry, queries[query_indices], k, ef)
                   for _, entry, query_indices in tasks]
    for _, entry, _ in tasks:
        host.cache.unpin(entry)
    host.node.record_wall_compute(time.perf_counter() - started)
    wave_evals = 0
    for (_, _, query_indices), output in zip(tasks, outputs):
        wave_evals += output.evals
        for row, query_index in enumerate(query_indices):
            merger.add(query_index, output.gids[row], output.dists[row])
    return wave_evals
