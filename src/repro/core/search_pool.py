"""The search worker pool: processes with cluster→worker affinity.

The beam search is pure Python, which the interpreter lock serializes
across threads, so ``search_workers > 1`` means processes: per-cluster
tasks are sharded over *N single-worker process pools*, cluster ``cid``
always lands on worker ``cid % N``, and each worker memoizes deserialized
entries in a module-level cache keyed by ``(pool token, cluster, extent
epoch, overflow tail)``.  A task therefore ships the (potentially large)
entry bytes only on the first touch of a given entry state; subsequent
waves send just the queries.  Workers answer ``None`` for a cache miss
(e.g. after the worker-side cache was trimmed) and the client
transparently resends the task with the entry attached.  A shipped entry
carries its graph but none of the graph's traversal scratch
(``LayeredGraph.__getstate__``).

Workers are created with the platform's default start method — ``fork`` on
Linux.  The serving process starts no thread of its own (this pool is the
one executor it owns), so the only threads a fork can happen beside are
the stdlib's per-executor manager threads of the shards started earlier.

Determinism: tasks are pure (:func:`search_cluster_entry`), affinity is a
pure function of the cluster id, and the caller gathers results in task
order — so results are bit-identical to the inline path at every worker
count.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor

from repro.core.cache import CachedCluster
from repro.core.cluster_search import ClusterSearchResult, search_cluster_entry

__all__ = ["SearchPool"]

#: Per-process entry cache (lives in each worker; empty in the parent).
_WORKER_ENTRIES: dict[tuple, CachedCluster] = {}
#: Entries kept per worker before the cache is dropped wholesale.  Affinity
#: means a worker only ever sees ~(num_clusters / workers) entries, so a
#: generous cap just bounds pathological insert-heavy workloads.
_WORKER_CACHE_LIMIT = 256

_POOL_TOKENS = itertools.count()


def _search_task(key: tuple, entry: CachedCluster | None, queries, k: int,
                 ef: int) -> ClusterSearchResult | None:
    """Worker-side task: resolve the entry, then run the pure search.

    Returns None when ``entry`` was withheld and the worker cache has no
    copy — the client resends with the entry attached.
    """
    cached = _WORKER_ENTRIES.get(key)
    if cached is None:
        if entry is None:
            return None
        if len(_WORKER_ENTRIES) >= _WORKER_CACHE_LIMIT:
            _WORKER_ENTRIES.clear()
        _WORKER_ENTRIES[key] = entry
        cached = entry
    return search_cluster_entry(cached, queries, k, ef)


class SearchPool:
    """N single-worker process pools, one per affinity shard."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._token = (os.getpid(), next(_POOL_TOKENS))
        self._executors = [ProcessPoolExecutor(max_workers=1)
                           for _ in range(workers)]
        # Client-side mirror of what each worker should have cached; a
        # stale mirror only costs one resend, never a wrong answer.
        self._shipped: list[set[tuple]] = [set() for _ in range(workers)]

    def run_wave(self, tasks: list[tuple[int, tuple, CachedCluster,
                                         "object", int, int]],
                 ) -> list[ClusterSearchResult]:
        """Run ``(cluster_id, state_key, entry, queries, k, ef)`` tasks.

        Results come back in task order.  ``state_key`` must change
        whenever the entry's contents change (extent epoch, overflow
        tail) so workers never serve stale graphs.
        """
        submitted = []
        for cluster_id, state_key, entry, queries, k, ef in tasks:
            shard = cluster_id % self.workers
            key = (self._token, cluster_id, state_key)
            ship = key not in self._shipped[shard]
            future = self._executors[shard].submit(
                _search_task, key, entry if ship else None, queries, k, ef)
            if ship:
                if len(self._shipped[shard]) >= _WORKER_CACHE_LIMIT:
                    self._shipped[shard].clear()
                self._shipped[shard].add(key)
            submitted.append((shard, key, entry, queries, k, ef, future))

        results: list[ClusterSearchResult] = []
        for shard, key, entry, queries, k, ef, future in submitted:
            result = future.result()
            if result is None:
                # Worker-side cache lost the entry: resend with payload.
                result = self._executors[shard].submit(
                    _search_task, key, entry, queries, k, ef).result()
                self._shipped[shard].add(key)
            results.append(result)
        return results

    def close(self) -> None:
        for executor in self._executors:
            executor.shutdown(wait=False, cancel_futures=True)
        self._executors = []

    def __enter__(self) -> "SearchPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
