"""Executor stage: runs a batch plan's schedule — the deduplicated plan
serially (paper Tables 1-2) or as one ready-list loop that searches
whatever is already in DRAM while the next READ is on the wire, and the
naive one-pair-per-wave plan.  Clusters are searched inline or on the
worker processes this stage owns.
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
from repro.core.search_pool import SearchPool
from repro.errors import LayoutError
from repro.serving.fetcher import Delta, Extent, Fetcher
from repro.serving.trace import TraceContext, span
from repro.transport import PendingRead

__all__ = ["PlanExecution", "ReadyList", "WaveExecutor"]

#: ``(cluster id, query rows)``: the unit of search work.
Group = tuple[int, list[int]]


@dataclasses.dataclass
class PlanExecution:
    """What a schedule actually did (returned by ``execute_plan``)."""

    sub_evals: int = 0
    fetched: int = 0
    hit_count: int = 0
    #: Simulated µs charged for decode + search (the sub-HNSW bucket).
    sub_hnsw_us: float = 0.0
    #: ``(cluster id, µs)`` decode costs of admitted extents, not yet
    #: charged to the clock.
    decode_backlog: list[tuple[int, float]] = dataclasses.field(
        default_factory=list)
    #: True when the ready-list loop ran (READs in flight behind search).
    pipeline_executed: bool = False
    #: Per row, the client clock once the row's last ``(query, cluster)``
    #: pair was searched and final; None when the schedule charged
    #: nothing cluster by cluster (every row then completes with the
    #: batch).
    complete_us: np.ndarray | None = dataclasses.field(default=None,
                                                       compare=False)


@dataclasses.dataclass
class _Ring:
    """One READ in flight in the ready-list loop."""

    token: PendingRead
    #: Fetched clusters, after the tail words in the payloads.
    extents: list[Extent] = dataclasses.field(default_factory=list)
    #: ``(group id, hits it validates)`` per tail word, payloads first.
    words: list[tuple[int, list[int]]] = dataclasses.field(
        default_factory=list)
    #: A delta ring for lagging hits instead.
    delta: Delta | None = None


class WaveExecutor:
    """Searches planned clusters inline or on ``config.search_workers``
    worker processes."""

    def __init__(self, host, fetcher: Fetcher) -> None:
        self.host = host
        self.fetcher = fetcher
        # Created lazily on the first multi-worker search.
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
    def ready_list(self, plan: BatchPlan, queries: np.ndarray,
                   merger: TopKMerger, k: int, ef: int,
                   trace: TraceContext | None = None) -> "ReadyList | None":
        """The ready-list loop for ``plan``, not started — or None when
        the plan runs serially: ``config.pipeline_waves`` off, the naive
        scheme, or nothing to fetch."""
        host = self.host
        if not (host.config.pipeline_waves and host.policy.deduplicate_batch
                and plan.waves):
            return None
        return ReadyList(self, plan, queries, merger, k, ef, trace)

    def execute_plan(self, plan: BatchPlan, queries: np.ndarray,
                     merger: TopKMerger, k: int, ef: int,
                     trace: TraceContext | None = None,
                     loop: "ReadyList | None" = None) -> PlanExecution:
        """Run ``plan``: under its ready-list loop (``loop``, when the
        engine started it mid-routing) or serially.

        The ready-list loop searches the earliest-needed planned cluster
        already in DRAM and waits on the NIC only when none is left, so
        the READ of wave ``i+1`` is in flight while the CPU searches wave
        ``i``, the hits, or whatever landed first; hidden wire time lands
        in ``RdmaStats.overlapped_time_us``.  Decode and search are
        charged cluster by cluster as they run, and a row's answer is
        final, and stamped, once its own last cluster is
        (``PlanExecution.complete_us``).  The serial schedule validates
        and searches the hits, then each wave's READ and search, and
        charges decode and search once, after the last wave.
        """
        if loop is None:
            loop = self.ready_list(plan, queries, merger, k, ef, trace)
            if loop is not None:
                loop.start(len(queries))
        if loop is not None:
            return loop.run()
        return self._execute_serial(plan, queries, merger, k, ef, trace)

    def _execute_serial(self, plan: BatchPlan, queries: np.ndarray,
                        merger: TopKMerger, k: int, ef: int,
                        trace: TraceContext | None) -> PlanExecution:
        """Validate and search the hits, then fetch and search each wave
        in turn; one search charge, then the decodes.  Per-wave charges
        would move the last float64 digit of the recorded tables:
        Σ(evals_w·c) ≠ (Σ evals_w)·c."""
        host, fetcher = self.host, self.fetcher
        execution = PlanExecution()
        hits = plan.hit_groups()
        if hits:
            fetcher.validate_cached([cid for cid, _ in hits], trace)
            entries = {cid: self.take_hit(cid) for cid, _ in hits}
            execution.hit_count += len(entries)
            self._search_and_merge(hits, entries, queries, merger, k, ef,
                                   execution, trace)
        for wave in plan.waves:
            entries = fetcher.admit(*fetcher.read(
                wave.fetch_cluster_ids, host.policy.doorbell_batching,
                trace), execution, trace)
            self._search_and_merge(wave.cluster_groups(), entries, queries,
                                   merger, k, ef, execution, trace)
        search_us = self.charge_search(execution.sub_evals, trace)
        execution.sub_hnsw_us = search_us + self.charge_decode(execution,
                                                               trace)
        return execution

    def _search_and_merge(self, groups: list[Group],
                          entries: dict[int, CachedCluster],
                          queries: np.ndarray, merger: TopKMerger, k: int,
                          ef: int, execution: PlanExecution,
                          trace: TraceContext | None) -> None:
        outputs = self.run_wave_compute(groups, entries, queries, k, ef,
                                        trace)
        for (_, rows), output in zip(groups, outputs):
            merge_output(merger, rows, output)
            execution.sub_evals += output.evals

    def take_hit(self, cluster_id: int) -> CachedCluster:
        """A planned hit's entry (counted as a hit).  Nothing runs between
        planning and this call that could evict it."""
        entry = self.host.cache.get(cluster_id)
        if entry is None:
            raise LayoutError(
                f"planned hit {cluster_id} left the cache before its batch")
        return entry

    def charge_decode(self, execution: PlanExecution,
                      trace: TraceContext | None,
                      cluster_id: int | None = None) -> float:
        """Charge the decode backlog (only ``cluster_id``'s, when given)
        to the clock; returns the µs."""
        owed = 0.0
        kept = []
        for cid, decode_us in execution.decode_backlog:
            if cluster_id is None or cid == cluster_id:
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
    def run_wave_compute(self, groups: list[Group],
                         entries: dict[int, CachedCluster],
                         queries: np.ndarray, k: int, ef: int,
                         trace: TraceContext | None = None) -> list:
        """Search per-cluster query groups inline or on the worker pool;
        returns one output per group, in order.

        Tasks are the pure :func:`search_cluster_entry`: nothing shared is
        mutated outside this process, so every worker count is
        bit-identical.
        """
        host = self.host
        with span(trace, "compute"):
            tasks: list[tuple[int, CachedCluster, list[int]]] = []
            for cid, query_indices in groups:
                entry = entries.get(cid)
                if entry is None:
                    raise LayoutError(
                        f"planned cluster {cid} missing during search")
                tasks.append((cid, entry, query_indices))
            # Pin for the duration of the search: a concurrent request's
            # cache admission must not evict these entries (their vector
            # stores may be zero-copy views whose DRAM would be freed
            # mid-search), and a concurrent invalidation must
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
        return outputs


def merge_output(merger: TopKMerger, rows: list[int], output) -> None:
    """Hand one cluster search's per-row candidates to the merger."""
    for position, row in enumerate(rows):
        merger.add(row, output.gids[position], output.dists[position])


class ReadyList:
    """One batch under the ready-list loop.

    Every planned cluster is searched once, earliest-needed first among
    those whose bytes are in DRAM: a hit from the start (it is taken and
    pinned when the first READ is posted), a fetched cluster once its
    wave's READ has landed.  Wave ``i+2``'s READ is posted once wave
    ``i`` is searched, so the batch holds at most two waves besides its
    hits, as the double buffer it replaces did; each entry stays pinned
    until it is final.

    A hit is searched optimistically: the tail word that validates it
    rides in the first READ posted after its row is routed, and its
    answer is merged — final — only once that word has landed.  A hit
    the word shows lagging is searched again after its delta ring lands
    (the first search is charged and discarded).
    """

    def __init__(self, executor: WaveExecutor, plan: BatchPlan,
                 queries: np.ndarray, merger: TopKMerger, k: int, ef: int,
                 trace: TraceContext | None) -> None:
        self.executor = executor
        self.host = executor.host
        self.fetcher = executor.fetcher
        self.plan = plan
        self.queries, self.merger, self.k, self.ef = queries, merger, k, ef
        self.trace = trace
        self.execution = PlanExecution(pipeline_executed=True)
        self.rows = {cid: list(rows) for cid, rows in plan.clusters}
        #: First-need rank: the order the rows need the clusters in.
        self.rank = {cid: rank for rank, (cid, _) in enumerate(plan.clusters)}
        #: Clusters each row still waits on.
        self.left = collections.Counter(row for _, rows in plan.clusters
                                        for row in rows)
        self.complete_us = np.full(len(queries), np.nan)
        #: Searchable entries, by cluster id.
        self.ready: dict[int, CachedCluster] = {}
        #: Every entry this batch pinned and has not released.
        self.pinned: dict[int, CachedCluster] = {}
        #: Hits whose tail word has not landed yet, and the ones whose
        #: word was not posted yet (in first-need order).
        self.unconfirmed: set[int] = set()
        self.unposted: list[int] = []
        #: Outputs searched (wall clock) but not charged yet, and outputs
        #: charged but waiting for their hit's tail word.
        self.outputs: dict[int, object] = {}
        self.held: dict[int, object] = {}
        self.merged: set[int] = set()
        self.rings: collections.deque[_Ring] = collections.deque()
        self.next_wave = 0
        #: Per posted wave not searched to the end, what it has left.
        self.open_waves: list[set[int]] = []

    # -- the loop ---------------------------------------------------------
    def start(self, routed_rows: int) -> None:
        """Take and pin the hits and post the first wave's READ, with the
        tail words of the hits the first ``routed_rows`` rows need (the
        rest ride in the next READ)."""
        hits = sorted(self.plan.cache_hit_cluster_ids,
                      key=self.rank.__getitem__)
        for cid in hits:
            self.ready[cid] = self._pin(cid, self.executor.take_hit(cid))
        self.execution.hit_count += len(hits)
        self.unconfirmed.update(hits)
        routed = [cid for cid in hits if self.rows[cid][0] < routed_rows]
        self.unposted = routed
        try:
            self._post_next()
            self.unposted = hits[len(routed):]
        except BaseException:
            self._release()
            raise

    def run(self) -> PlanExecution:
        """Search every planned cluster; returns what the loop did."""
        host, plan = self.host, self.plan
        try:
            while len(self.merged) < len(plan.clusters):
                cid = min(self.ready, key=self.rank.__getitem__,
                          default=None)
                if self.rings and (cid is None or (
                        self.rings[0].token.completes_at_us
                        <= host.node.clock.now_us)):
                    # Landed already, or nothing else to do: take it in.
                    self._land(self.rings.popleft())
                elif cid is not None:
                    self._search(cid)
                else:
                    raise LayoutError("planned clusters left unsearched")
        finally:
            self._release()
        # A row no cluster serviced (the cold tier's) ends with the batch.
        self.complete_us[np.isnan(self.complete_us)] = host.node.clock.now_us
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
        """Post the next wave's READ, unless two waves are still open,
        with the tail words of the hits not posted yet (a READ of those
        alone once every wave is posted)."""
        waves = self.plan.waves
        cluster_ids = ()
        if len(self.open_waves) < 2 and self.next_wave < len(waves):
            cluster_ids = waves[self.next_wave].fetch_cluster_ids
            self.next_wave += 1
            self.open_waves.append(set(cluster_ids))
        elif self.next_wave < len(waves) or not self.unposted:
            return
        metadata = self.host.metadata
        words: dict[int, list[int]] = {}
        for cid in self.unposted:
            words.setdefault(metadata.clusters[cid].group_id, []).append(cid)
        self.unposted = []
        groups = sorted(words)
        token, extents = self.fetcher.issue_async(
            cluster_ids, self.host.policy.doorbell_batching, groups)
        self.rings.append(_Ring(token, extents,
                                [(gid, words[gid]) for gid in groups]))

    def _land(self, ring: _Ring) -> None:
        """Wait for ``ring`` (nothing, if it has landed) and take it in."""
        fetcher, trace = self.fetcher, self.trace
        payloads = fetcher.poll(ring.token, trace)
        if ring.delta is not None:
            fetcher.graft(ring.delta, payloads)
            for _, entry in ring.delta.lagging:
                self.ready[entry.cluster_id] = entry
            return
        if ring.extents:
            loaded = fetcher.admit(ring.extents, payloads[len(ring.words):],
                                   self.execution, trace)
            for cid, entry in loaded.items():
                self.ready[cid] = self._pin(cid, entry)
        if ring.words:
            fetcher.note_tails([gid for gid, _ in ring.words], payloads)
            checked = [self.pinned[cid] for _, cids in ring.words
                       for cid in cids]
            self.unconfirmed.difference_update(entry.cluster_id
                                               for entry in checked)
            lagging = fetcher.issue_top_up(checked)
            stale = set()
            if lagging is not None:
                token, delta = lagging
                self.rings.append(_Ring(token, delta=delta))
                stale = {entry.cluster_id for _, entry in delta.lagging}
            for entry in checked:
                cid = entry.cluster_id
                if cid in stale:
                    self.ready.pop(cid, None)
                    self.held.pop(cid, None)
                    self.outputs.pop(cid, None)
                elif cid in self.held:
                    self._merge(cid, self.held.pop(cid))
        self._post_next()

    # -- search ---------------------------------------------------------------
    def _search(self, cid: int) -> None:
        """Charge ``cid``'s decode and search; merge it unless it is a
        hit still waiting for its tail word."""
        executor, execution, trace = self.executor, self.execution, self.trace
        if cid not in self.outputs:
            # Search everything searchable in one go (one pool round trip
            # when there are workers); each is charged when its turn comes.
            groups = [(other, self.rows[other]) for other in self.ready
                      if other not in self.outputs]
            self.outputs.update(zip(
                (other for other, _ in groups),
                executor.run_wave_compute(groups, self.ready, self.queries,
                                          self.k, self.ef, trace)))
        output = self.outputs.pop(cid)
        execution.sub_hnsw_us += executor.charge_decode(execution, trace, cid)
        execution.sub_hnsw_us += executor.charge_search(output.evals, trace)
        if cid in self.unconfirmed:
            self.held[cid] = output
            del self.ready[cid]
        else:
            self._merge(cid, output)

    def _merge(self, cid: int, output) -> None:
        """``cid``'s answer is final: merge it, release its pin, and stamp
        every row it was the last cluster of."""
        rows = self.rows[cid]
        merge_output(self.merger, rows, output)
        self.execution.sub_evals += output.evals
        self.ready.pop(cid, None)
        self.merged.add(cid)
        self.host.cache.unpin(self.pinned.pop(cid))
        now_us = self.host.node.clock.now_us
        for row in rows:
            self.left[row] -= 1
            if not self.left[row]:
                self.complete_us[row] = now_us
        for left in self.open_waves:
            left.discard(cid)
        if self.open_waves and not self.open_waves[0]:
            del self.open_waves[0]
            self._post_next()

    def _pin(self, cid: int, entry: CachedCluster) -> CachedCluster:
        self.host.cache.pin(entry)
        self.pinned[cid] = entry
        return entry
