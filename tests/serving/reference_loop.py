"""Test-side transcriptions of every schedule the executor runs, as
schedule oracles.

The serving path runs one ready-list loop (``serving/executor.py``) for
every scheme and config; this module writes each schedule it produces
down again from its rule, independently of that loop, so
``test_engine_equivalence.py`` can run the same batches through both and
assert bit-identical results, sub-evaluations, RDMA counters, cache
counters and per-row stamps:

* :func:`execute_plan_pipelined` — look-ahead on (``pipeline_waves``
  under a deduplicating scheme): search whatever is in DRAM with two
  waves open, hits optimistically ahead of their tail words;
* :func:`execute_plan_serial` — look-ahead off: wave by wave, each READ
  landed as soon as it is posted, the hits' tail words in the first;
* :func:`execute_naive` — the naive scheme: one READ per ``(query,
  cluster)`` pair, landed, searched and charged before the next.

It is *not* an independent implementation of the substrate: it shares the
client's fetcher (descriptors, admission, tail words, delta rings),
decoder (memoization), cache and worker pools with the staged path —
those are substrate, not orchestration.  What it pins is the *schedule*:
the exact verb order, charge order and cache interaction.  Pieces that
have left ``src/`` live here with it: a ``PlanExecution`` report of its
own, the decoder's deserialize side channel (``_DeserializeLedger``) and
the ``overlap_saved`` closed form of the double buffer.  It records no
trace spans, so an installed client is single-request only; it pins
entries as ``src/`` does, because the cache hands a streamed entry's DRAM
back when its last pin drops.

Per-row completion stamps are derived here the oracle's own way — a
countdown of each row's unmerged clusters against the clock read at each
merge — where ``src/`` keeps its own countdown inside the loop.  So are
the beams: each row searches a cluster at the beam its rule gives the
cluster's place in the row's routed list (:func:`beam`), the place read
off the routes this module captures from the planner (the naive
schedule's off the order of its pairs), never off ``BatchPlan.ranks``.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import time
import types

import numpy as np

from repro.core.cache import CachedCluster
from repro.core.cluster_search import search_cluster_entry
from repro.core.merge import TopKMerger
from repro.core.query_planner import BatchPlan
from repro.errors import LayoutError
from repro.layout.group_layout import overflow_tail_extent
from repro.serving import executor as staged


@dataclasses.dataclass
class PlanExecution:
    """What a transcription reports back to the engine."""

    sub_evals: int = 0
    fetched: int = 0
    hit_count: int = 0
    #: Wire time hidden under compute, added up READ by READ from each
    #: token's duration and the wait its poll exposed.
    overlap_oracle_us: float = 0.0
    #: Simulated µs charged to the sub-HNSW bucket (decode + search).
    charged_compute_us: float = 0.0
    #: Per row: the clock when its last cluster was merged.
    complete_us: np.ndarray | None = None


def beam(ef: int, k: int, rank: int) -> int:
    """The rule, written down again: the probe at ``rank`` (0 for the
    closest) of a row's routed list gets ``ef / (rank + 1)``, rounded up,
    and never fewer than ``k``."""
    return max(k, math.ceil(ef / (rank + 1)))


def beams(routes: list[list[int]], cluster_id: int, rows, ef: int,
          k: int) -> list[int]:
    """Each of ``rows``' beam for its probe of ``cluster_id``."""
    return [beam(ef, k, routes[row].index(cluster_id)) for row in rows]


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
    the simulated deserialize cost of the payloads it was handed; the
    schedules drain it."""

    def __init__(self, decoder) -> None:
        self.pending_us = 0.0
        decode_extent = decoder.decode_extent
        self.cost_model = decoder.ctx.cost_model

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
    """Replace ``client``'s ready-list loop with these transcriptions.

    An instance attribute on the executor — the same seam the spine's
    tracer wraps — so the engine's ``_search_batch_once`` runs unchanged
    around it: ``ready_list`` hands the engine a loop whose ``start``
    posts the first READ once ``first_rows`` rows are routed and whose
    ``run`` finishes the batch.  The transcription is picked from the
    scheme and config, as the rule reads: the naive schedule takes the
    ``(query, cluster)`` pairs back out of the one-pair-per-wave plan.
    Returns the list each batch's oracle-side execution is appended to.
    """
    ledger = _DeserializeLedger(client.engine.decoder)
    executions: list[PlanExecution] = []
    # The routes each batch is planned from, for the beams; a plan run by
    # hand (no planner call) has none and must not reach a search.
    routed: list[list[list[int]] | None] = [None]
    plan_routes = client.engine.planner.plan

    def plan(required, trace):
        routed[0] = required
        return plan_routes(required, trace)

    def ready_list(plan, queries, merger, k, ef, trace=None):
        # A torn attempt (``StaleReadError``) leaves decodes it never
        # charged; the retry must not inherit them.
        ledger.drain()
        routes, routed[0] = routed[0], None
        if not client.policy.query_aware_loading:
            required: list[list[int]] = [[] for _ in queries]
            for wave in plan.waves:
                (query_index, cluster_id), = wave.serviced
                required[query_index].append(cluster_id)
            steps = _after_routing(execute_naive, client, required,
                                   queries, merger, k, ef)
        elif client.config.pipeline_waves:
            steps = execute_plan_pipelined(client, plan, routes, queries,
                                           merger, k, ef)
        else:
            steps = _after_routing(execute_plan_serial, client, plan,
                                   routes, queries, merger, k, ef)
        first_rows = (plan.first_wave_rows
                      if client.policy.query_aware_loading
                      and client.config.pipeline_waves else len(queries))
        return types.SimpleNamespace(
            first_rows=first_rows,
            start=lambda routed_rows: _start(steps, routed_rows),
            run=lambda: _finish(steps, executions))

    client.engine.planner.plan = plan
    client.engine.executor.ready_list = ready_list
    return executions


def _after_routing(schedule, *args):
    """A schedule that posts nothing before every row is routed, as a
    generator of the same two pauses as the pipelined one."""
    yield
    yield
    return schedule(*args)


def _start(steps, routed_rows: int) -> None:
    """Run a transcription up to its first READ."""
    steps.send(None)
    steps.send(routed_rows)


def _finish(steps, executions: list[PlanExecution]) -> staged.PlanExecution:
    """Run a transcription to the end; report it as ``src/`` does."""
    try:
        steps.send(None)
    except StopIteration as done:
        execution = done.value
    else:
        raise AssertionError("a transcription yielded twice")
    executions.append(execution)
    return staged.PlanExecution(
        sub_evals=execution.sub_evals, fetched=execution.fetched,
        hit_count=execution.hit_count,
        sub_hnsw_us=execution.charged_compute_us,
        complete_us=execution.complete_us)


def execute_plan_serial(host, plan: BatchPlan, routes: list[list[int]],
                        queries: np.ndarray, merger: TopKMerger, k: int,
                        ef: int) -> PlanExecution:
    """Look-ahead off, transcribed wave by wave.

    Take and pin the hits.  Then per wave: post its READ — the first one
    with the tail words of every hit (a READ of the words alone when
    nothing is fetched) — and poll it at once; decode, top up and offer
    what it fetched; note the words, and land the delta ring of the hits
    they show lagging at once too.  Only then search, earliest-needed
    first among the clusters in DRAM, until every cluster of this wave has
    been searched (after the last READ: until every cluster has been);
    each search charges its cluster's decode, then its evaluations, and
    is final.  Nothing is searched while a READ is outstanding.
    """
    execution = PlanExecution()
    fetcher, cache, clock = host.engine.fetcher, host.cache, host.node.clock
    ledger = host.engine.decoder.deserialize_ledger
    doorbell = host.policy.doorbell_batching
    cluster_of = [cid for cid, _ in plan.clusters]
    rows_of = [list(rows) for _, rows in plan.clusters]
    countdown = collections.Counter(row for rows in rows_of for row in rows)
    complete_us = np.full(len(queries), np.nan)
    hit_ids = set(plan.cache_hit_cluster_ids)
    hits = [pos for pos, cid in enumerate(cluster_of) if cid in hit_ids]
    unfilled = {cid: [pos for pos, other in enumerate(cluster_of)
                      if other == cid] for cid in set(cluster_of) - hit_ids}
    in_dram: dict[int, CachedCluster] = {}
    owed: dict[int, float] = {}
    searched: set[int] = set()

    def search(pos: int) -> None:
        entry = in_dram[pos]
        started = time.perf_counter()
        output = search_cluster_entry(
            entry, queries[rows_of[pos]], k,
            beams(routes, cluster_of[pos], rows_of[pos], ef, k))
        host.node.record_wall_compute(time.perf_counter() - started)
        execution.charged_compute_us += host.node.charge_time(
            owed.pop(pos, 0.0))
        execution.charged_compute_us += host.node.charge_compute(
            output.evals, host.meta.dim)
        for place, row in enumerate(rows_of[pos]):
            merger.add(row, output.gids[place], output.dists[place])
        execution.sub_evals += output.evals
        searched.add(pos)
        cache.unpin(entry)
        for row in rows_of[pos]:
            countdown[row] -= 1
            if countdown[row] == 0:
                complete_us[row] = clock.now_us

    try:
        for pos in hits:
            entry = cache.get(cluster_of[pos])
            if entry is None:
                raise LayoutError(f"planned hit {cluster_of[pos]} left "
                                  f"the cache")
            cache.pin(entry)
            in_dram[pos] = entry
            execution.hit_count += 1
        reads = [wave.fetch_cluster_ids for wave in plan.waves]
        if not reads and hits:
            reads = [()]
        for index, fetch_ids in enumerate(reads):
            groups: dict[int, list[int]] = {}
            for pos in hits if index == 0 else ():
                groups.setdefault(host.metadata.clusters[
                    cluster_of[pos]].group_id, []).append(pos)
            group_ids = sorted(groups)
            token, extents = fetcher.issue_async(list(fetch_ids), doorbell,
                                                 group_ids)
            payloads = host.transport.poll(token)
            wave = [unfilled[cid].pop(0) for cid in fetch_ids]
            loaded = {}
            parts = iter(payloads[len(group_ids):])
            for (cid, ranges), pos in zip(extents, wave):
                ledger.drain()
                loaded[cid] = host.engine.decoder.decode_extent(
                    cid, ranges, [next(parts) for _ in ranges])
                owed[pos] = ledger.drain()
            if wave:
                owed[wave[0]] += host.cost_model.deserialize_us(
                    fetcher.top_up(loaded.values()))
            execution.fetched += len(loaded)
            if host.policy.query_aware_loading:
                fetcher.offer(loaded.values())
            for cid, pos in zip(fetch_ids, wave):
                cache.pin(loaded[cid])
                in_dram[pos] = loaded[cid]
            if group_ids:
                fetcher.note_tails(group_ids, payloads)
                lagging = fetcher.issue_top_up(
                    [in_dram[pos] for gid in group_ids for pos in groups[gid]])
                if lagging is not None:
                    ring, delta = lagging
                    fetcher.graft(delta, host.transport.poll(ring))
            last = index == len(reads) - 1
            while any(pos not in searched
                      for pos in (in_dram if last else wave)):
                search(min(pos for pos in in_dram if pos not in searched))
    finally:
        for pos, entry in in_dram.items():
            if pos not in searched:
                cache.unpin(entry)
    complete_us[np.isnan(complete_us)] = clock.now_us
    execution.complete_us = complete_us
    return execution


def execute_plan_pipelined(host, plan: BatchPlan, routes: list[list[int]],
                           queries: np.ndarray, merger: TopKMerger, k: int,
                           ef: int):
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
    execution = PlanExecution()
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
        descriptors, extents = fetcher.extent_descriptors(list(fetch_ids))
        words = host.ctx.read_descriptors(
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
            if host.policy.query_aware_loading:
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
            output = search_cluster_entry(
                entry, queries[rows_of[cid]], k,
                beams(routes, cid, rows_of[cid], ef, k))
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
    # A row the plan gives no cluster ends with the batch.
    complete_us[np.isnan(complete_us)] = clock.now_us
    execution.complete_us = complete_us
    execution.overlap_oracle_us = hidden_us
    return execution


def execute_naive(host, required: list[list[int]], queries: np.ndarray,
                  merger: TopKMerger, k: int, ef: int) -> PlanExecution:
    """Naive d-HNSW: per ``(query, cluster)`` pair, in query order, one
    READ without a doorbell, polled at once, decoded and searched; the
    decode, then the evaluations, are charged before the next READ is
    posted, and a row is final with its last pair."""
    execution = PlanExecution()
    fetcher, clock = host.engine.fetcher, host.node.clock
    ledger = host.engine.decoder.deserialize_ledger
    complete_us = np.full(len(queries), np.nan)
    for query_index, cluster_ids in enumerate(required):
        for rank, cid in enumerate(cluster_ids):
            token, extents = fetcher.issue_async([cid], False)
            payloads = host.transport.poll(token)
            ledger.drain()
            (_, ranges), = extents
            entry = host.engine.decoder.decode_extent(cid, ranges, payloads)
            decode_us = ledger.drain()
            decode_us += host.cost_model.deserialize_us(
                fetcher.top_up([entry]))
            execution.fetched += 1
            started = time.perf_counter()
            output = search_cluster_entry(
                entry, queries[query_index:query_index + 1], k,
                [beam(ef, k, rank)])
            host.node.record_wall_compute(time.perf_counter() - started)
            execution.charged_compute_us += host.node.charge_time(decode_us)
            execution.charged_compute_us += host.node.charge_compute(
                output.evals, host.meta.dim)
            execution.sub_evals += output.evals
            merger.add(query_index, output.gids[0], output.dists[0])
        if cluster_ids:
            complete_us[query_index] = clock.now_us
    complete_us[np.isnan(complete_us)] = clock.now_us
    execution.complete_us = complete_us
    return execution
