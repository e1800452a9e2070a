"""Executor stage: runs a batch plan as one ready-list loop — search the
earliest-needed planned cluster whose bytes are in DRAM, wait on the NIC
only when none is left — for every scheme and config.  With look-ahead
(``config.pipeline_waves`` under a deduplicating scheme) two waves are
open and the READs fly behind routing and search; without it every
posted READ lands before anything is searched, one wave at a time, so
nothing overlaps (paper Tables 1-2, and the naive scheme's one pair per
wave).  Every cluster is searched in the serving process, when its
turn to be charged comes.
"""

from __future__ import annotations

import collections
import dataclasses
import time

import numpy as np

from repro.core.cache import CachedCluster
from repro.core.cluster_search import search_cluster_entry
from repro.core.merge import TopKMerger
from repro.core.query_planner import BatchPlan
from repro.errors import LayoutError
from repro.serving.fetcher import Delta, Extent, Fetcher
from repro.serving.trace import TraceContext, span
from repro.transport import PendingRead

__all__ = ["OPEN_WAVES", "PlanExecution", "ReadyList", "WaveExecutor",
           "lookahead", "probe_ef"]

#: Posted waves the loop keeps open, without and with look-ahead.
OPEN_WAVES = (1, 2)


def probe_ef(ef: int, k: int, rank: int) -> int:
    """The beam of a row's probe at ``rank`` of its routed list (0 for
    the closest): ``ef`` divided by ``rank + 1``, rounded up, never below
    ``k``.  The lead probe supplies most of a row's top-k, so the later
    ones search narrower beams; every probe still keeps ``k``."""
    return max(k, -(-ef // (rank + 1)))


def lookahead(host) -> bool:
    """The loop's look-ahead: ``config.pipeline_waves`` under a
    query-aware scheme."""
    return host.config.pipeline_waves and host.policy.query_aware_loading


@dataclasses.dataclass
class PlanExecution:
    """What the loop did (returned by :meth:`ReadyList.run`)."""

    sub_evals: int = 0
    fetched: int = 0
    hit_count: int = 0
    #: Simulated µs charged for decode + search (the sub-HNSW bucket).
    sub_hnsw_us: float = 0.0
    #: ``(cluster id, µs)`` decode costs of admitted extents, not yet
    #: charged to the clock.
    decode_backlog: list[tuple[int, float]] = dataclasses.field(
        default_factory=list)
    #: Per row, the client clock once the row's last ``(query, cluster)``
    #: pair was searched and final (the loop's end for a row it searched
    #: nothing for).
    complete_us: np.ndarray | None = dataclasses.field(default=None,
                                                       compare=False)


@dataclasses.dataclass
class _Ring:
    """One READ in flight in the ready-list loop."""

    token: PendingRead
    #: Fetched clusters, after the tail words in the payloads, and the
    #: plan position each one fills (a delta ring's: its lagging hits').
    extents: list[Extent] = dataclasses.field(default_factory=list)
    positions: list[int] = dataclasses.field(default_factory=list)
    #: ``(group id, hit positions it validates)`` per tail word, payloads
    #: first.
    words: list[tuple[int, list[int]]] = dataclasses.field(
        default_factory=list)
    #: A delta ring for lagging hits instead.
    delta: Delta | None = None


class WaveExecutor:
    """Searches planned clusters, one at a time, in the serving
    process."""

    def __init__(self, host, fetcher: Fetcher) -> None:
        self.host = host
        self.fetcher = fetcher

    # -- the schedule -----------------------------------------------------
    def ready_list(self, plan: BatchPlan, queries: np.ndarray,
                   merger: TopKMerger, k: int, ef: int,
                   trace: TraceContext | None = None) -> "ReadyList":
        """The ready-list loop for ``plan``, not started: the engine
        calls :meth:`ReadyList.start` once :attr:`ReadyList.first_rows`
        rows are routed, then :meth:`ReadyList.run`."""
        return ReadyList(self, plan, queries, merger, k, ef, trace)

    def take_hit(self, cluster_id: int) -> CachedCluster:
        """A planned hit's entry (counted as a hit).  Nothing runs between
        planning and this call that could evict it."""
        entry = self.host.cache.get(cluster_id)
        if entry is None:
            raise LayoutError(
                f"planned hit {cluster_id} left the cache before its batch")
        return entry

    def charge_decode(self, execution: PlanExecution, cluster_id: int,
                      trace: TraceContext | None) -> float:
        """Charge ``cluster_id``'s decode backlog to the clock; returns
        the µs."""
        owed = 0.0
        kept = []
        for cid, decode_us in execution.decode_backlog:
            if cid == cluster_id:
                owed += decode_us
            else:
                kept.append((cid, decode_us))
        execution.decode_backlog = kept
        with span(trace, "decode"):
            return self.host.node.charge_time(owed)

    def charge_search(self, evals: int, trace: TraceContext | None) -> float:
        """Charge ``evals`` distance evaluations; returns the µs."""
        with span(trace, "compute"):
            return self.host.node.charge_compute(evals, self.host.meta.dim)

    # -- compute ------------------------------------------------------------
    def run_wave_compute(self, cluster_id: int, entry: CachedCluster,
                         rows: list[int], queries: np.ndarray, k: int,
                         beams: list[int],
                         trace: TraceContext | None = None):
        """Search ``entry`` for the query ``rows``, row ``rows[i]`` at
        beam ``beams[i]``, with the pure :func:`search_cluster_entry`;
        ``cluster_id`` names the search for whatever wraps the method
        (the tracer, test spies).  The caller holds a pin on the entry,
        so nothing evicts or rewrites it mid-search."""
        with span(trace, "compute"):
            started = time.perf_counter()
            output = search_cluster_entry(entry, queries[rows], k, beams)
            self.host.node.record_wall_compute(time.perf_counter() - started)
        return output


def merge_output(merger: TopKMerger, rows: list[int], output) -> None:
    """Hand one cluster search's per-row candidates to the merger."""
    for position, row in enumerate(rows):
        merger.add(row, output.gids[position], output.dists[position])


class ReadyList:
    """One batch under the ready-list loop.

    Every planned search — a position of ``plan.clusters``, which is also
    its first-need rank — runs once, earliest-needed first among those
    whose bytes are in DRAM: a hit from the start (it is taken and pinned
    when the first READ is posted), a fetched cluster once its wave's
    READ has landed.  A wave fills the next unfilled position of each
    cluster it fetches, so a plan that fetches a cluster in more than one
    wave (the naive scheme's) runs here as it is.  Each entry stays
    pinned until it is final.  A search runs each of its rows at that
    row's probe-rank beam (:func:`probe_ef`), all of them in one call.

    With look-ahead, wave ``i+2``'s READ is posted once wave ``i`` is
    searched, so the batch holds at most two waves besides its hits, and
    a READ is waited on only when nothing is searchable.  Without it one
    wave is open and every posted READ lands before anything is searched:
    nothing overlaps a READ.

    A hit is searched optimistically: the tail word that validates it
    rides in the first READ posted after its row is routed, and its
    answer is merged — final — only once that word has landed.  A hit
    the word shows lagging is searched again after its delta ring lands
    (the first search is charged and discarded).  A position is searched
    when its charge comes, so nothing is searched that is not charged.
    """

    def __init__(self, executor: WaveExecutor, plan: BatchPlan,
                 queries: np.ndarray, merger: TopKMerger, k: int, ef: int,
                 trace: TraceContext | None) -> None:
        self.executor = executor
        self.host = host = executor.host
        self.fetcher = executor.fetcher
        self.plan = plan
        self.queries, self.merger, self.k = queries, merger, k
        self.trace = trace
        self.lookahead = lookahead(host)
        #: Rows routed before the first READ is posted: those that fix
        #: it under look-ahead, else every row (routing overlaps nothing).
        self.first_rows = (plan.first_wave_rows if self.lookahead
                           else len(queries))
        self.execution = PlanExecution()
        #: Per position: the cluster searched, its query rows and each
        #: row's beam.
        self.cluster_ids = [cid for cid, _ in plan.clusters]
        self.rows = [list(rows) for _, rows in plan.clusters]
        self.beams = [[probe_ef(ef, k, rank) for rank in ranks]
                      for ranks in plan.ranks]
        #: Searches not merged yet, and the ones each row still waits on.
        self.unmerged = len(plan.clusters)
        self.left = collections.Counter(row for rows in self.rows
                                        for row in rows)
        self.complete_us = np.full(len(queries), np.nan)
        hit_ids = set(plan.cache_hit_cluster_ids)
        self.hits = [pos for pos, cid in enumerate(self.cluster_ids)
                     if cid in hit_ids]
        #: Positions each fetched cluster fills, in first-need order.
        self.fills: dict[int, collections.deque[int]] = {}
        for pos, cid in enumerate(self.cluster_ids):
            if cid not in hit_ids:
                self.fills.setdefault(cid, collections.deque()).append(pos)
        #: Searchable entries, by position.
        self.ready: dict[int, CachedCluster] = {}
        #: Every entry this batch pinned and has not released.
        self.pinned: dict[int, CachedCluster] = {}
        #: Hits whose tail word has not landed yet, and the ones whose
        #: word was not posted yet (in first-need order).
        self.unconfirmed: set[int] = set()
        self.unposted: list[int] = []
        #: Outputs charged but waiting for their hit's tail word.
        self.held: dict[int, object] = {}
        self.rings: collections.deque[_Ring] = collections.deque()
        self.next_wave = 0
        #: Per posted wave not searched to the end, what it has left.
        self.open_waves: list[set[int]] = []

    # -- the loop ---------------------------------------------------------
    def start(self, routed_rows: int) -> None:
        """Take and pin the hits and post the first wave's READ, with the
        tail words of the hits the first ``routed_rows`` rows need (the
        rest ride in the next READ)."""
        hits = self.hits
        routed = [pos for pos in hits if self.rows[pos][0] < routed_rows]
        try:
            for pos in hits:
                self.ready[pos] = self._pin(
                    pos, self.executor.take_hit(self.cluster_ids[pos]))
            self.execution.hit_count += len(hits)
            self.unconfirmed.update(hits)
            self.unposted = routed
            self._post_next()
            self.unposted = hits[len(routed):]
        except BaseException:
            self._release()
            raise

    def run(self) -> PlanExecution:
        """Search every planned cluster; returns what the loop did."""
        clock = self.host.node.clock
        try:
            while self.unmerged:
                pos = min(self.ready, default=None)
                if self.rings and (pos is None or not self.lookahead or (
                        self.rings[0].token.completes_at_us
                        <= clock.now_us)):
                    # Landed already, nothing else to do, or no look-ahead:
                    # take it in.
                    self._land(self.rings.popleft())
                elif pos is not None:
                    self._search(pos)
                else:
                    raise LayoutError("planned clusters left unsearched")
        finally:
            self._release()
        # A row the plan gives no cluster ends with the loop.
        self.complete_us[np.isnan(self.complete_us)] = clock.now_us
        self.execution.complete_us = self.complete_us
        return self.execution

    def _release(self) -> None:
        """Retire what is still in flight uncharged (an error escaped, or
        its copy-on-write guard would outlive the request) and drop every
        pin the batch still holds."""
        host = self.host
        while self.rings:
            host.transport.abandon(self.rings.popleft().token)
        for entry in self.pinned.values():
            host.cache.unpin(entry)
        self.pinned.clear()

    # -- READs --------------------------------------------------------------
    def _post_next(self) -> None:
        """Post the next wave's READ, unless as many waves as the
        look-ahead allows are open, with the tail words of the hits not
        posted yet (a READ of those alone once every wave is posted)."""
        waves = self.plan.waves
        cluster_ids, positions = (), []
        if (len(self.open_waves) < OPEN_WAVES[self.lookahead]
                and self.next_wave < len(waves)):
            cluster_ids = waves[self.next_wave].fetch_cluster_ids
            self.next_wave += 1
            positions = [self.fills[cid].popleft() for cid in cluster_ids]
            self.open_waves.append(set(positions))
        elif self.next_wave < len(waves) or not self.unposted:
            return
        metadata = self.host.metadata
        words: dict[int, list[int]] = {}
        for pos in self.unposted:
            words.setdefault(metadata.clusters[self.cluster_ids[pos]].group_id,
                             []).append(pos)
        self.unposted = []
        groups = sorted(words)
        token, extents = self.fetcher.issue_async(
            cluster_ids, self.host.policy.doorbell_batching, groups)
        self.rings.append(_Ring(token, extents, positions,
                                [(gid, words[gid]) for gid in groups]))

    def _land(self, ring: _Ring) -> None:
        """Wait for ``ring`` (nothing, if it has landed) and take it in."""
        fetcher, trace = self.fetcher, self.trace
        payloads = fetcher.poll(ring.token, trace)
        if ring.delta is not None:
            fetcher.graft(ring.delta, payloads)
            for pos in ring.positions:
                self.ready[pos] = self.pinned[pos]
            return
        if ring.extents:
            loaded = fetcher.admit(ring.extents, payloads[len(ring.words):],
                                   self.execution, trace)
            for (cid, _), pos in zip(ring.extents, ring.positions):
                self.ready[pos] = self._pin(pos, loaded[cid])
        if ring.words:
            fetcher.note_tails([gid for gid, _ in ring.words], payloads)
            checked = [pos for _, positions in ring.words
                       for pos in positions]
            self.unconfirmed.difference_update(checked)
            lagging = fetcher.issue_top_up([self.pinned[pos]
                                            for pos in checked])
            stale = []
            if lagging is not None:
                token, delta = lagging
                stale_ids = {entry.cluster_id for _, entry in delta.lagging}
                stale = [pos for pos in checked
                         if self.cluster_ids[pos] in stale_ids]
                self.rings.append(_Ring(token, positions=stale, delta=delta))
            for pos in checked:
                if pos in stale:
                    self.ready.pop(pos, None)
                    self.held.pop(pos, None)
                elif pos in self.held:
                    self._merge(pos, self.held.pop(pos))
        self._post_next()

    # -- search ---------------------------------------------------------------
    def _search(self, pos: int) -> None:
        """Search ``pos`` and charge it and its cluster's decode; merge it
        unless it is a hit still waiting for its tail word."""
        executor, execution, trace = self.executor, self.execution, self.trace
        output = executor.run_wave_compute(
            self.cluster_ids[pos], self.ready[pos], self.rows[pos],
            self.queries, self.k, self.beams[pos], trace)
        execution.sub_hnsw_us += executor.charge_decode(
            execution, self.cluster_ids[pos], trace)
        execution.sub_hnsw_us += executor.charge_search(output.evals, trace)
        if pos in self.unconfirmed:
            self.held[pos] = output
            del self.ready[pos]
        else:
            self._merge(pos, output)

    def _merge(self, pos: int, output) -> None:
        """The search at ``pos`` is final: merge it, release its pin, and
        stamp every row it was the last cluster of."""
        rows = self.rows[pos]
        merge_output(self.merger, rows, output)
        self.execution.sub_evals += output.evals
        self.ready.pop(pos, None)
        self.unmerged -= 1
        self.host.cache.unpin(self.pinned.pop(pos))
        now_us = self.host.node.clock.now_us
        for row in rows:
            self.left[row] -= 1
            if not self.left[row]:
                self.complete_us[row] = now_us
        for left in self.open_waves:
            left.discard(pos)
        if self.open_waves and not self.open_waves[0]:
            del self.open_waves[0]
            self._post_next()

    def _pin(self, pos: int, entry: CachedCluster) -> CachedCluster:
        self.host.cache.pin(entry)
        self.pinned[pos] = entry
        return entry
