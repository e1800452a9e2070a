"""The compute-instance sub-HNSW cluster cache (§3.3).

"Additionally, we retain the most recently loaded c sub-HNSWs for the next
batch.  If the required sub-HNSWs are already in the compute instance, they
do not need to be loaded again, further reducing data transfer overhead."

Capacity is a cluster count (the paper configures 10 % of all clusters)
and, optionally, a byte cap (``hot_tier_budget_bytes``) on what the
residents hold together.  Entries carry the epoch of the extent they were
decoded from and the overflow tail observed at load time so staleness is
detectable after inserts and rebuilds.

What is retained is ranked by what it would cost to fetch again, not by
recency alone.  Under wave-by-wave loading every admission is an eviction,
so "the most recently loaded" would mean "this batch's last wave" and a
cluster that nearly every batch probes would be refetched every batch.  An
entry's *value* is its demand-weighted EWMA access frequency
(:meth:`ClusterCache.record_access`, bumped once per batch by the serving
engine) times its ``nbytes`` — what a miss re-reads and re-decodes, both
linear in it.  A fetched entry is admitted when the cache has room or when
its value is at least the weakest unpinned resident's, which it then
evicts; otherwise it is *streamed*: searched in its wave and dropped.
Equal values fall back to LRU order, so where every entry is worth the
same (nothing recorded, or uniform demand over equal sizes) the cache is
the paper's LRU.  Under a byte cap the planner also sizes each wave in
bytes, so the waves open at once stream at most the cap besides what the
residents hold (a wave of one cluster larger than its share excepted):
held bytes peak at twice the cap (:attr:`ClusterCache.peak_held_bytes`
is the high-water mark).

The cache is thread-safe: every operation (including the byte/counter
bookkeeping) runs under one re-entrant lock, although the serving engine
itself reaches it from one thread only and searches every entry in its
own process.  Accounting lives *inside* the cache: ``get``
counts hits and misses, ``put`` counts the miss that caused the fetch (an
insert of an absent key), any evictions and any streamed entry — callers
never poke the counters.  The cache is also the instance's one ledger of
cluster DRAM (:attr:`ClusterCache.held_bytes`): its residents, plus every
streamed entry until its wave's last pin drops.  Every way a resident
leaves (evicted, replaced, invalidated) goes through one ``_drop``, and
:meth:`ClusterCache.grow` holds a grown resident to the same caps as
:meth:`ClusterCache.put` does a new one.
"""

from __future__ import annotations

import collections
import dataclasses
import threading

import numpy as np

from repro.errors import ConfigError
from repro.hnsw.index import HnswIndex
from repro.layout.serializer import OverflowRecord

__all__ = ["CachedCluster", "ClusterCache", "FREQ_HALFLIFE_US"]

#: Half-life of the EWMA access frequency, in simulated microseconds:
#: short enough to follow a workload shift, long enough to damp
#: admission churn.
FREQ_HALFLIFE_US = 50_000.0


@dataclasses.dataclass
class CachedCluster:
    """A deserialized sub-HNSW plus the overflow records seen at load."""

    cluster_id: int
    index: HnswIndex
    overflow: list[OverflowRecord]
    overflow_tail: int
    #: What identifies the bytes ``index`` was decoded from: ``(group
    #: version, blob offset, blob length)``.  Moves only when the
    #: cluster's own group is rebuilt — not with the overflow tail, not
    #: with another group's cutover.
    extent_epoch: tuple[int, int, int]
    #: Bytes the entry holds: what its fetch read (blob, tail word, record
    #: slots) plus every delta grafted since (:meth:`ClusterCache.grow`).
    nbytes: int
    #: In-flight compute references.  The zero-copy decode path leaves
    #: ``index`` holding read-only views over remote region memory; a
    #: pinned entry is being searched right now, so the cache must not
    #: evict it (that would free DRAM still in use) and must
    #: :meth:`materialize` it before the backing extent can be rewritten.
    #: Mutated only under the owning cache's lock.
    pins: int = 0
    #: ``index.labels`` (node id -> global id) as an int64 array.  The
    #: decoder converts once per decoded base and hands the same array to
    #: every entry over it; the index is frozen after deserialization.
    labels: np.ndarray | None = None
    #: Fetched but not admitted: the entry is searched in its wave only.
    #: The cache holds its ``nbytes`` for that wave and lets them go when
    #: its last pin drops (:meth:`ClusterCache.unpin`).
    streamed: bool = False

    def __post_init__(self) -> None:
        if self.labels is None:
            self.labels = np.asarray(self.index.labels, dtype=np.int64)

    def materialize(self) -> bool:
        """Copy any region-aliasing vector views to private memory."""
        return self.index.materialize()


class ClusterCache:
    """Lock-guarded cache of deserialized sub-HNSW clusters that keeps
    what costs most to refetch (frequency x bytes, LRU among equals)."""

    def __init__(self, capacity_clusters: int,
                 capacity_bytes: int | None = None) -> None:
        if capacity_clusters < 1:
            raise ConfigError(
                f"cache capacity must be >= 1, got {capacity_clusters}")
        self.capacity_clusters = int(capacity_clusters)
        #: Bytes the residents may hold together (None: no byte cap).
        self.capacity_bytes = capacity_bytes
        self._entries: collections.OrderedDict[int, CachedCluster] = (
            collections.OrderedDict())
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._streamed = 0
        self._cached_bytes = 0
        # Bytes of streamed entries their wave still pins.
        self._streamed_bytes = 0
        self._peak_held_bytes = 0
        # EWMA access frequencies, keyed by cluster id.  Deliberately
        # covers non-resident clusters too: admission scores a cluster
        # before it is resident, so the signal must survive eviction.
        # Each value is (score, last_access_us); the score decays by
        # 2 ** (-elapsed / halflife) before each bump or read.
        self._freq: dict[int, tuple[float, float]] = {}

    # ------------------------------------------------------------------
    # Counters (read-only: incremented inside get/put/invalidate)
    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        """Lookups served from cache."""
        return self._hits

    @property
    def misses(self) -> int:
        """Lookups that went to remote memory (counted at ``get`` misses
        and at ``put`` inserts of absent keys)."""
        return self._misses

    @property
    def evictions(self) -> int:
        """Entries displaced by capacity pressure."""
        return self._evictions

    @property
    def streamed(self) -> int:
        """Fetched entries worth less than every evictable resident:
        searched in their wave and dropped, never admitted (each also
        counted one miss, and none an eviction)."""
        return self._streamed

    @property
    def invalidations(self) -> int:
        """Entries dropped as stale."""
        return self._invalidations

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, cluster_id: int) -> bool:
        with self._lock:
            return cluster_id in self._entries

    @property
    def cached_bytes(self) -> int:
        """Sum of cached entries' sizes (a running total, O(1))."""
        return self._cached_bytes

    @property
    def held_bytes(self) -> int:
        """Cluster DRAM held: :attr:`cached_bytes` plus the bytes of every
        streamed entry its wave has not yet unpinned."""
        with self._lock:
            return self._cached_bytes + self._streamed_bytes

    @property
    def peak_held_bytes(self) -> int:
        """The most :attr:`held_bytes` has been since the cache was made."""
        return self._peak_held_bytes

    def _note_held(self) -> None:
        """Raise the high-water mark after bytes were taken on.  Must be
        called under the lock."""
        self._peak_held_bytes = max(
            self._peak_held_bytes, self._cached_bytes + self._streamed_bytes)

    def get(self, cluster_id: int) -> CachedCluster | None:
        """Look up a cluster, refreshing its recency; counts hit/miss."""
        with self._lock:
            entry = self._entries.get(cluster_id)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(cluster_id)
            self._hits += 1
            return entry

    def peek(self, cluster_id: int) -> CachedCluster | None:
        """Look up without touching recency or counters (planner use)."""
        with self._lock:
            return self._entries.get(cluster_id)

    # ------------------------------------------------------------------
    # EWMA access frequency (admission and eviction signal)
    # ------------------------------------------------------------------
    def record_access(self, cluster_id: int, now_us: float,
                      weight: float = 1.0) -> float:
        """Bump ``cluster_id``'s EWMA access score at time ``now_us``.

        Separate from :meth:`get` recency/hit accounting: the serving
        engine records *every* routed cluster — resident or fetched —
        once per batch, while ``get`` only sees lookups.  ``weight`` is
        how many queries of the batch probe the cluster, so popularity
        (not mere presence in a batch) drives admission and retention.
        Returns the updated score.
        """
        if weight <= 0:
            raise ConfigError(f"weight must be > 0, got {weight}")
        with self._lock:
            score, last = self._freq.get(cluster_id, (0.0, now_us))
            if now_us > last:
                score *= 2.0 ** (-(now_us - last) / FREQ_HALFLIFE_US)
            score += weight
            self._freq[cluster_id] = (score, max(now_us, last))
            return score

    def frequency(self, cluster_id: int, now_us: float) -> float:
        """Read ``cluster_id``'s EWMA score decayed to ``now_us``."""
        with self._lock:
            record = self._freq.get(cluster_id)
            if record is None:
                return 0.0
            score, last = record
            if now_us > last:
                score *= 2.0 ** (-(now_us - last) / FREQ_HALFLIFE_US)
            return score

    # ------------------------------------------------------------------
    # Pinning (in-flight compute protection)
    # ------------------------------------------------------------------
    def pin(self, entry: CachedCluster) -> None:
        """Mark ``entry`` as in use by compute: it will not be evicted,
        and invalidation will materialize it instead of leaving the
        searcher's zero-copy views over soon-to-be-rewritten memory."""
        with self._lock:
            entry.pins += 1

    def unpin(self, entry: CachedCluster) -> None:
        """Release one compute reference taken by :meth:`pin`; the last
        one off a streamed entry lets its bytes go."""
        with self._lock:
            if entry.pins <= 0:
                raise ValueError(
                    f"cluster {entry.cluster_id} unpinned more times than "
                    f"pinned")
            entry.pins -= 1
            if entry.streamed and not entry.pins:
                entry.streamed = False
                self._streamed_bytes -= entry.nbytes

    def _drop(self, entry: CachedCluster) -> None:
        """The one exit: ``entry`` is leaving ``_entries``; take its bytes
        off the running total.  Must be called under the lock."""
        self._cached_bytes -= entry.nbytes

    def value(self, entry: CachedCluster, now_us: float) -> float:
        """What keeping ``entry`` saves: its access frequency at
        ``now_us`` times the bytes a miss would re-read and re-decode."""
        return self.frequency(entry.cluster_id, now_us) * entry.nbytes

    def _victims(self, entry: CachedCluster,
                 now_us: float) -> list[int] | None:
        """The one room-and-victim rule: the ids of the residents other
        than ``entry`` that it evicts to be held, weakest first, or None
        when it is streamed instead.  Must be called under the lock.

        It is admitted when there is room under both caps, or when it is
        worth at least the weakest unpinned resident, which it evicts
        together with as many next-weakest as room takes.  An entry
        larger than the byte cap never fits.  Pinned residents are never
        victims (a search is reading them): an entry that the unpinned
        ones cannot make room for is streamed, so a ``put`` never takes
        the cache past a cap."""
        byte_cap = self.capacity_bytes
        if byte_cap is not None and entry.nbytes > byte_cap:
            return None
        # Clusters and bytes still to free before the entry fits (a grown
        # resident already counts in both).
        clusters = len(self._entries) - self.capacity_clusters
        held = self._cached_bytes
        if self._entries.get(entry.cluster_id) is not entry:
            clusters += 1
            held += entry.nbytes
        excess = 0 if byte_cap is None else held - byte_cap
        victims: list[int] = []
        if clusters <= 0 and excess <= 0:
            return victims
        value = self.value(entry, now_us)
        # A stable sort keeps LRU order among equal values.
        ranked = sorted(((self.value(other, now_us), other)
                         for other in self._entries.values()
                         if other is not entry and not other.pins),
                        key=lambda ranking: ranking[0])
        for victim_value, victim in ranked:
            if not victims and value < victim_value:
                return None
            victims.append(victim.cluster_id)
            clusters -= 1
            excess -= victim.nbytes
            if clusters <= 0 and excess <= 0:
                return victims
        return None

    def _evict(self, cluster_id: int) -> CachedCluster:
        """Displace resident ``cluster_id``.  Must be called under the
        lock."""
        entry = self._entries.pop(cluster_id)
        self._evictions += 1
        self._drop(entry)
        return entry

    def put(self, entry: CachedCluster,
            now_us: float = 0.0) -> list[CachedCluster] | None:
        """Offer an entry; returns the entries it evicted, or None when it
        was streamed rather than admitted.

        Admission is :meth:`_victims`' rule, with ``entry``'s
        :meth:`value` at ``now_us``.  A streamed entry is left out of the
        cache, counted in :attr:`streamed` (not in :attr:`evictions`),
        and flagged; its ``nbytes`` count in :attr:`held_bytes` until
        :meth:`unpin` takes its wave's last pin off.  With no access
        recorded every value is 0 and the rule is LRU.

        Inserting a key that was absent counts one miss — the fetch that
        produced ``entry`` went to remote memory.
        """
        with self._lock:
            previous = self._entries.pop(entry.cluster_id, None)
            if previous is not None:
                self._drop(previous)
            else:
                self._misses += 1
            victims = self._victims(entry, now_us)
            if victims is None:
                entry.streamed = True
                self._streamed += 1
                self._streamed_bytes += entry.nbytes
                self._note_held()
                return None
            evicted = [self._evict(cid) for cid in victims]
            self._entries[entry.cluster_id] = entry
            self._cached_bytes += entry.nbytes
            self._note_held()
            return evicted

    def grow(self, entry: CachedCluster, nbytes: int,
             now_us: float = 0.0) -> None:
        """Add ``nbytes`` to ``entry``'s size (records grafted onto it).

        A grown resident is held to :meth:`put`'s rule at its new size,
        ranked against the other residents: it evicts the victims the
        rule names, or — when the rule would stream it — leaves the
        cache itself, unless a search has it pinned."""
        with self._lock:
            entry.nbytes += nbytes
            if self._entries.get(entry.cluster_id) is not entry:
                if entry.streamed:
                    self._streamed_bytes += nbytes
                    self._note_held()
                return
            self._cached_bytes += nbytes
            self._note_held()
            victims = self._victims(entry, now_us)
            if victims is None:
                if not entry.pins:
                    self._evict(entry.cluster_id)
                return
            for cid in victims:
                self._evict(cid)

    def invalidate(self, cluster_id: int) -> bool:
        """Drop one entry (stale after a rebuild); True if it was cached.

        A pinned victim is materialized first: invalidation means the
        backing extent is being retired and may be rewritten, and the
        in-flight search holding the pin must keep seeing the bytes it
        started with.
        """
        with self._lock:
            victim = self._entries.pop(cluster_id, None)
            if victim is not None:
                if victim.pins > 0:
                    victim.materialize()
                self._drop(victim)
                self._invalidations += 1
                return True
            return False

    def invalidate_all(self) -> None:
        """Drop everything (metadata version change)."""
        with self._lock:
            for victim in self._entries.values():
                if victim.pins > 0:
                    victim.materialize()
                self._drop(victim)
            self._invalidations += len(self._entries)
            self._entries.clear()

    def materialize_all(self) -> int:
        """Privatize every resident entry's region-aliasing views.

        Called before remote memory the entries may alias is rewritten
        in place — replica repair, or simulated corruption in the chaos
        harness (on real hardware compute-local DRAM is naturally private;
        the simulator's zero-copy views are not).  Returns the number of
        entries that actually copied storage.
        """
        with self._lock:
            return sum(1 for entry in self._entries.values()
                       if entry.materialize())

    def hit_rate(self) -> float:
        """Fraction of lookups served from cache."""
        total = self._hits + self._misses
        return self._hits / total if total else 0.0

    def counters(self) -> tuple[int, int, int]:
        """(hits, misses, evictions) read atomically under the lock."""
        with self._lock:
            return self._hits, self._misses, self._evictions
