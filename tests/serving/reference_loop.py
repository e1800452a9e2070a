"""The pre-seam monolithic wave loop, kept test-side as a schedule oracle.

A faithful transcription of the serving loop as it lived inside
``DHnswClient`` before the staged decomposition: one function per former
private method, operating directly on the client.  ``install(client)``
swaps it in for the staged ``WaveExecutor`` schedules so
``test_engine_equivalence.py`` can run the same batches through both and
assert bit-identical results, sub-evaluations, RDMA counters, and cache
counters.

It is *not* an independent implementation of the substrate: it shares the
client's fetcher (descriptors, admission, tail words, delta rings),
decoder (memoization), cache and worker pools with the staged path —
those are substrate, not orchestration.  What it pins is the *schedule*:
the exact verb order, charge order, and cache interaction of the serial
and naive loops of the monolith, and of the ready-list loop that replaced
its double-buffered one (:func:`execute_plan_pipelined`, transcribed
from the rule, not from ``src/``).  The pieces of the monolith that have
left ``src/`` for good live here with it: its ``PlanExecution`` report,
the decoder's deserialize side channel (``_DeserializeLedger``), the
engine's lump charges (in ``install``) and the ``overlap_saved`` closed
form of the double buffer.  It records no trace spans, so an installed
client is single-request only; it pins entries as ``src/`` does, because
the cache hands a streamed entry's DRAM back when its last pin drops.

Per-row completion stamps are derived here the oracle's own way — a
countdown of each row's unmerged clusters against the clock read at each
merge — where ``src/`` keeps its own countdown inside the loop.
"""

from __future__ import annotations

import collections
import dataclasses
import time
import types

import numpy as np

from repro.core.cache import CachedCluster
from repro.core.cluster_search import search_cluster_entry
from repro.core.merge import TopKMerger
from repro.core.query_planner import BatchPlan, Wave
from repro.errors import LayoutError
from repro.layout.group_layout import overflow_tail_extent
from repro.serving import executor as staged


@dataclasses.dataclass
class PlanExecution:
    """What the monolith's schedules reported back to its engine, which
    then posted the charges the schedule had not (``charged_in_loop``)."""

    sub_evals: int = 0
    fetched: int = 0
    hit_count: int = 0
    #: Wire time hidden under compute, added up READ by READ from each
    #: token's duration and the wait its poll exposed.
    overlap_oracle_us: float = 0.0
    #: True when deserialize + compute were charged cluster by cluster
    #: inside the pipelined loop; the engine then skipped its lump charges.
    charged_in_loop: bool = False
    #: Simulated µs already charged to the sub-HNSW bucket in-loop.
    charged_compute_us: float = 0.0
    pipeline_executed: bool = False
    #: Per row: the clock when its last cluster was merged (pipelined
    #: schedule only; the serial and naive ones release with the batch).
    complete_us: np.ndarray | None = None


def overlap_saved(profiles: list[tuple[float, float]]) -> float:
    """Serial minus double-buffered schedule length for the given waves:
    the monolith's closed form, ``f_0 + sum(max(f_{i+1}, p_i)) +
    p_last``, where only wave ``i``'s search overlaps wave ``i+1``'s
    fetch.  The ready-list loop that replaced the double buffer also
    hides wire time behind routing and hits, which this form cannot
    express; its transcription adds the hidden time up READ by READ.
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
    """Replace ``client``'s staged schedules with these.

    Instance attributes on the executor — the same seam the spine's
    tracer wraps — so the engine's ``_search_batch_once`` runs unchanged
    around them: ``ready_list`` hands the engine a loop whose ``start``
    posts the first READ mid-routing, ``execute_plan`` runs it (or the
    serial schedule).  The replacement dispatches on the scheme as the
    monolith's engine did (the naive schedule reads the ``(query,
    cluster)`` pairs back out of the one-pair-per-wave plan), then posts
    the lump charges that engine posted for schedules that did not charge
    in-loop.  Returns the list each batch's oracle-side execution is
    appended to.
    """
    ledger = _DeserializeLedger(client.engine.decoder)
    executions: list[PlanExecution] = []

    def ready_list(plan, queries, merger, k, ef, trace=None):
        if not (client.policy.deduplicate_batch
                and client.config.pipeline_waves and plan.waves):
            return None
        # A torn attempt (``StaleReadError``) leaves decodes it never
        # charged; the retry must not inherit them (src fixed this in the
        # staged loop, where the backlog lives on the attempt's execution).
        ledger.drain()
        steps = execute_plan_pipelined(client, plan, queries, merger, k, ef)
        return types.SimpleNamespace(
            start=lambda routed_rows: _start(steps, routed_rows),
            steps=steps)

    def run(plan, queries, merger, k, ef, trace=None, loop=None):
        if loop is None:
            loop = ready_list(plan, queries, merger, k, ef)
            if loop is not None:
                loop.start(len(queries))
        if loop is not None:
            execution = _finish(loop.steps)
        elif client.policy.deduplicate_batch:
            ledger.drain()
            execution = execute_plan_serial(client, plan, queries, merger,
                                            k, ef)
        else:
            ledger.drain()
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

    client.engine.executor.ready_list = ready_list
    client.engine.executor.execute_plan = run
    return executions


def _start(steps, routed_rows: int) -> None:
    """Run the ready-list transcription up to its first READ."""
    steps.send(None)
    steps.send(routed_rows)


def _finish(steps) -> PlanExecution:
    """Run the ready-list transcription to the end."""
    try:
        steps.send(None)
    except StopIteration as done:
        return done.value
    raise AssertionError("the ready-list loop yielded twice")


def monolith_waves(plan: BatchPlan) -> tuple[Wave, ...]:
    """The plan as the monolith's waves: a head wave of the hits (no
    fetch, cluster id order), then the READ waves."""
    hits = tuple((q, cid) for cid, rows in plan.hit_groups() for q in rows)
    head = (Wave(fetch_cluster_ids=(), serviced=hits),) if hits else ()
    return head + plan.waves


def execute_plan_serial(host, plan: BatchPlan, queries: np.ndarray,
                        merger: TopKMerger, k: int, ef: int) -> PlanExecution:
    """Strictly serial wave schedule: fetch, then search, per wave."""
    execution = PlanExecution()
    for wave in monolith_waves(plan):
        entries = _load_wave(host, wave, execution)
        execution.sub_evals += _run_wave_compute(
            host, wave, entries, queries, merger, k, ef)
    return execution


def execute_plan_pipelined(host, plan: BatchPlan, queries: np.ndarray,
                           merger: TopKMerger, k: int, ef: int):
    """The ready-list loop, transcribed from its rule, as a generator:
    sent the number of rows routed so far, it takes the hits and posts
    the first READ, then pauses until the rest of routing is billed.

    Search the earliest-needed planned cluster whose bytes are in DRAM;
    wait on the NIC only when none is left.  Hits are in DRAM from the
    start (taken and pinned when the first READ is posted); a fetched
    cluster once its wave's READ has landed, which this loop reads off
    the token's completion time.  The first wave's READ is posted once
    the rows that fix it are routed, each next one as soon as the
    previous has landed and no more than two waves are unsearched.  A
    hit's tail word rides in the first READ posted after its row is
    routed, and its answer counts only once that word has landed; a hit
    the word shows lagging waits for its delta ring and is searched
    again.  A row is stamped at the merge of its last cluster.
    """
    execution = PlanExecution(charged_in_loop=True, pipeline_executed=True)
    fetcher, cache, clock = host.engine.fetcher, host.cache, host.node.clock
    ledger = host.engine.decoder.deserialize_ledger
    doorbell = host.policy.doorbell_batching
    order = [cid for cid, _ in plan.clusters]
    rows_of = {cid: list(rows) for cid, rows in plan.clusters}
    countdown = collections.Counter(row for rows in rows_of.values()
                                    for row in rows)
    complete_us = np.full(len(queries), np.nan)
    hits = [cid for cid in order if cid in plan.cache_hit_cluster_ids]
    pending_waves = list(plan.waves)
    in_dram: dict[int, CachedCluster] = {}
    pins: dict[int, CachedCluster] = {}
    no_word_yet = set(hits)
    behind: set[int] = set()            # lagging hits, delta in flight
    charged: dict[int, object] = {}     # searched hits awaiting a word
    owed: dict[int, float] = {}         # decode µs per fetched cluster
    merged: set[int] = set()
    rings: list[dict] = []
    open_waves: list[set[int]] = []     # posted, not searched to the end
    late: list[int] = []                # hits whose word is not posted
    hidden_us = 0.0

    def post_next() -> None:
        # A wave's READ while fewer than two waves are unsearched; the
        # words of the hits routed since the last READ ride along.
        nonlocal late
        if pending_waves and len(open_waves) < 2:
            fetch_ids = pending_waves.pop(0).fetch_cluster_ids
            open_waves.append(set(fetch_ids))
        elif pending_waves or not late:
            return
        else:
            fetch_ids = ()
        word_hits, late = late, []
        groups: dict[int, list[int]] = {}
        for cid in word_hits:
            groups.setdefault(host.metadata.clusters[cid].group_id,
                              []).append(cid)
        group_ids = sorted(groups)
        descriptors, extents = _extent_descriptors(host, list(fetch_ids))
        words = fetcher._descriptors(
            overflow_tail_extent(host.metadata.groups[gid])
            for gid in group_ids)
        token = host.transport.read_batch_async(words + descriptors,
                                                doorbell=doorbell)
        rings.append({"token": token, "extents": extents,
                      "groups": [(gid, groups[gid]) for gid in group_ids]})

    def merge(cid: int, output) -> None:
        for position, row in enumerate(rows_of[cid]):
            merger.add(row, output.gids[position], output.dists[position])
        execution.sub_evals += output.evals
        merged.add(cid)
        cache.unpin(pins.pop(cid))
        for row in rows_of[cid]:
            countdown[row] -= 1
            if countdown[row] == 0:
                complete_us[row] = clock.now_us
        for wave in open_waves:
            wave.discard(cid)
        if open_waves and not open_waves[0]:
            open_waves.pop(0)
            post_next()

    def land(ring: dict) -> None:
        nonlocal hidden_us
        token = ring["token"]
        hidden_us += max(0.0, token.elapsed_us - max(
            0.0, token.completes_at_us - clock.now_us))
        payloads = host.transport.poll(token)
        if "delta" in ring:
            fetcher.graft(ring["delta"], payloads)
            behind.difference_update(entry.cluster_id
                                     for _, entry in ring["delta"].lagging)
            return
        words = len(ring["groups"])
        if ring["extents"]:
            loaded = {}
            parts = iter(payloads[words:])
            for cid, ranges in ring["extents"]:
                ledger.drain()
                loaded[cid] = host.engine.decoder.decode_extent(
                    cid, ranges, [next(parts) for _ in ranges])
                owed[cid] = ledger.drain()
            first = ring["extents"][0][0]
            owed[first] += host.cost_model.deserialize_us(
                fetcher.top_up(loaded.values()))
            execution.fetched += len(loaded)
            if host.policy.use_cluster_cache:
                fetcher.offer(loaded.values())
            for cid, entry in loaded.items():
                cache.pin(entry)
                pins[cid] = in_dram[cid] = entry
        if ring["groups"]:
            fetcher.note_tails([gid for gid, _ in ring["groups"]], payloads)
            validated = [cid for _, cids in ring["groups"] for cid in cids]
            no_word_yet.difference_update(validated)
            lagging = fetcher.issue_top_up([pins[cid] for cid in validated])
            if lagging is not None:
                rings.append({"token": lagging[0], "delta": lagging[1]})
                behind.update(entry.cluster_id
                              for _, entry in lagging[1].lagging)
            for cid in validated:
                if cid in behind:
                    charged.pop(cid, None)   # searched too early: again
                elif cid in charged:
                    merge(cid, charged.pop(cid))
        post_next()

    routed_rows = yield
    for cid in hits:
        entry = cache.get(cid)
        if entry is None:
            raise LayoutError(f"planned hit {cid} left the cache")
        cache.pin(entry)
        pins[cid] = in_dram[cid] = entry
        execution.hit_count += 1
    late = [cid for cid in hits if rows_of[cid][0] < routed_rows]
    try:
        post_next()
        late = [cid for cid in hits if rows_of[cid][0] >= routed_rows]
        yield
        while len(merged) < len(order):
            if rings and rings[0]["token"].completes_at_us <= clock.now_us:
                land(rings.pop(0))
                continue
            ready = [cid for cid in order if cid in in_dram
                     and cid not in merged and cid not in charged
                     and cid not in behind]
            if not ready:
                land(rings.pop(0))
                continue
            cid = ready[0]
            entry = in_dram[cid]
            started = time.perf_counter()
            output = search_cluster_entry(entry, queries[rows_of[cid]], k,
                                          ef)
            host.node.record_wall_compute(time.perf_counter() - started)
            if cid in owed:
                execution.charged_compute_us += host.node.charge_time(
                    owed.pop(cid))
            execution.charged_compute_us += host.node.charge_compute(
                output.evals, host.meta.dim)
            if cid in no_word_yet:
                charged[cid] = output
            else:
                merge(cid, output)
    finally:
        for ring in rings:
            host.transport.abandon(ring["token"])
        for entry in pins.values():
            cache.unpin(entry)
    # A row no cluster serviced (the cold tier's) ends with the batch.
    complete_us[np.isnan(complete_us)] = clock.now_us
    execution.complete_us = complete_us
    execution.overlap_oracle_us = hidden_us
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
            raise LayoutError(f"planned hit {cid} left the cache")
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
