"""Query-aware batched data loading (§3.3).

Given a batch of queries, each needing its ``nprobe`` closest sub-HNSW
clusters, the planner guarantees every cluster crosses the network **at
most once per batch** and never exceeds the compute instance's cache
capacity in flight.  When the union of required clusters is larger than the
cache, the batch is loaded in *waves* (the paper's Fig. 5 walkthrough):
READ rings of a cache-full of clusters, each advancing every query that
needs them while partial top-k candidates are retained.  Under a byte
cap, a wave also closes before its fetch bytes would pass a share of the
cap, so what is in flight stays bounded in bytes as well as clusters.

Clusters already cached are pruned from the load set entirely, but not
from the plan: :attr:`BatchPlan.clusters` lists every cluster the batch
searches, hits included, in the order the rows first need them, which is
the order the executor searches whatever is in DRAM.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.core.cache import ClusterCache
from repro.errors import ConfigError

__all__ = ["BatchPlan", "Wave", "plan_batch", "plan_naive"]


@dataclasses.dataclass(frozen=True)
class Wave:
    """One load-and-process round: which clusters to fetch, then which
    (query, cluster) pairs become serviceable."""

    fetch_cluster_ids: tuple[int, ...]
    serviced: tuple[tuple[int, int], ...]  # (query index, cluster id)


@dataclasses.dataclass(frozen=True)
class BatchPlan:
    """The full schedule for a query batch."""

    #: The READ rings, in fetch order (hits are in none of them).
    waves: tuple[Wave, ...]
    cache_hit_cluster_ids: tuple[int, ...]
    unique_clusters: int
    duplicate_requests_pruned: int
    #: Every search the batch makes, cache hits included: a cluster and
    #: the rows that probe it, in first-need order (row, then probe
    #: rank).  The executor keys its per-search state by position here.
    clusters: tuple[tuple[int, tuple[int, ...]], ...] = ()
    #: How many leading rows fix the first wave's clusters: once they are
    #: routed, the first READ can be posted (every row, when the batch
    #: has fewer misses than a wave holds).
    first_wave_rows: int = 0
    #: Per search in :attr:`clusters`, each row's probe rank: where the
    #: cluster sits in that row's routed list (0 for its closest).  The
    #: executor sizes each row's beam by it.
    ranks: tuple[tuple[int, ...], ...] = ()

    @property
    def total_fetches(self) -> int:
        """Clusters that will cross the network this batch."""
        return sum(len(wave.fetch_cluster_ids) for wave in self.waves)


def plan_batch(required: list[list[int]], cache: ClusterCache,
               cache_capacity: int, wave_bytes: int | None = None,
               fetch_bytes: Callable[[int], int] | None = None
               ) -> BatchPlan:
    """Schedule cluster loads for a batch.

    Parameters
    ----------
    required:
        ``required[q]`` lists the cluster ids query ``q`` must search.
    cache:
        The instance's cluster cache; cached clusters are searched without
        any fetch.  (Inspected via ``peek`` — recency is updated later,
        when the engine actually consumes entries.)
    cache_capacity:
        Maximum clusters resident at once; each wave fetches at most this
        many.
    wave_bytes, fetch_bytes:
        With a byte cap, the bytes a wave may fetch and the bytes a fetch
        of a cluster reads: a wave closes before a miss would take it
        past ``wave_bytes`` (it always takes one cluster).  None: waves
        are sized in clusters only.

    Earliest-row-first ordering: rows are in priority order by contract
    (the front door hands them over earliest deadline first; a plain
    batch caller's order is as good as any), so every cluster, hit or
    miss, is listed in the order the rows first need it — row index, then
    that row's probe rank — and misses are fetched in that order.  The
    pipelined executor searches the earliest-needed cluster whose bytes
    are in DRAM, so row ``r`` is final once the clusters rows ``0..r``
    first need are, and it is released there instead of at the batch
    end.  What a wave *contains* is untouched: every cluster still
    crosses once, in chunks of at most ``cache_capacity`` clusters (and
    ``wave_bytes``, unless one cluster alone is more).
    """
    if cache_capacity < 1:
        raise ConfigError(
            f"cache_capacity must be >= 1, got {cache_capacity}")

    # Insertion order is the fetch order: first row to need a cluster,
    # then that row's probe rank.
    demand: dict[int, list[int]] = {}
    ranks: dict[int, list[int]] = {}
    total_requests = 0
    for query_index, cluster_ids in enumerate(required):
        # dict.fromkeys: preserve order, drop duplicate probes of the
        # same cluster by one query (harmless upstream, wasteful here).
        for rank, cluster_id in enumerate(dict.fromkeys(cluster_ids)):
            demand.setdefault(cluster_id, []).append(query_index)
            ranks.setdefault(cluster_id, []).append(rank)
            total_requests += 1

    hits = [cid for cid in demand if cache.peek(cid) is not None]
    misses = [cid for cid in demand if cache.peek(cid) is None]

    chunks: list[list[int]] = []
    taken = 0
    # The miss the first wave's bytes could not take, if any.
    overflow = None
    for cid in misses:
        nbytes = 0 if wave_bytes is None else fetch_bytes(cid)
        if (not chunks or len(chunks[-1]) == cache_capacity
                or (wave_bytes is not None and taken + nbytes > wave_bytes)):
            if len(chunks) == 1 and len(chunks[0]) < cache_capacity:
                overflow = cid
            chunks.append([])
            taken = 0
        chunks[-1].append(cid)
        taken += nbytes
    waves = [Wave(fetch_cluster_ids=tuple(chunk),
                  serviced=tuple((q, cid) for cid in chunk
                                 for q in demand[cid]))
             for chunk in chunks]
    # The first wave is fixed by the row that first needs its last
    # cluster once it is full, or by the row that first needs the miss
    # its bytes could not take; otherwise a later row could still add one.
    if chunks and len(chunks[0]) == cache_capacity:
        first_wave_rows = demand[chunks[0][-1]][0] + 1
    elif overflow is not None:
        first_wave_rows = demand[overflow][0] + 1
    else:
        first_wave_rows = len(required)

    unique = len(demand)
    return BatchPlan(
        waves=tuple(waves),
        cache_hit_cluster_ids=tuple(sorted(hits)),
        unique_clusters=unique,
        duplicate_requests_pruned=total_requests - unique,
        clusters=tuple((cid, tuple(rows)) for cid, rows in demand.items()),
        first_wave_rows=first_wave_rows,
        ranks=tuple(tuple(ranks[cid]) for cid in demand),
    )


def plan_naive(required: list[list[int]]) -> BatchPlan:
    """Naive d-HNSW as a schedule: one ``(query, cluster)`` pair per wave,
    in query order, nothing deduplicated — one READ round trip per pair,
    and one search per pair (a cluster two rows probe is listed twice)."""
    pairs = [(query_index, rank, cluster_id)
             for query_index, cluster_ids in enumerate(required)
             for rank, cluster_id in enumerate(cluster_ids)]
    waves = tuple(Wave(fetch_cluster_ids=(cid,), serviced=((q, cid),))
                  for q, _, cid in pairs)
    return BatchPlan(waves=waves, cache_hit_cluster_ids=(),
                     unique_clusters=len({cid for _, _, cid in pairs}),
                     duplicate_requests_pruned=0,
                     clusters=tuple((cid, (q,)) for q, _, cid in pairs),
                     ranks=tuple((rank,) for _, rank, _ in pairs))
