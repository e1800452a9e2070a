"""The per-compute-instance d-HNSW client.

A :class:`DHnswClient` is one compute instance of the paper's architecture
(Fig. 2): it caches the meta-HNSW and the remote layout's cluster offsets
locally, keeps a cache of the loaded sub-HNSW clusters that would cost
most to fetch again (access frequency x bytes, LRU among equals), and
serves batched top-k queries and dynamic insertions against the
disaggregated memory pool.

The client is a *façade* over three lower layers:

* :mod:`repro.transport` — every remote byte moves through
  :attr:`DHnswClient.transport` (one-sided READ / WRITE / CAS / FAA plus
  doorbell-batched and async READs).  Assign ``client.transport`` to
  wrap the simulated-RDMA transport in decorators (fault injection,
  retries); every stage reads it per call.
* :mod:`repro.serving` — the batched query path is the staged pipeline
  Planner → Fetcher → Decoder → Executor → Merger composed by
  :attr:`DHnswClient.engine`.
* :mod:`repro.mutation` — the write path (insert / delete / batched
  insert, CAS-coordinated shadow rebuilds, grace-period reclamation)
  composed by :attr:`DHnswClient.mutation`.

Callers that need a single stage reach it through those attributes
(``client.engine.fetcher``, ``client.mutation.rebuild_group`` …); the
client itself exposes only the request-level API.

The client's loading behaviour is controlled by a
:class:`~repro.core.baselines.Scheme`, which is how the three systems of
the evaluation (naive / no-doorbell / full d-HNSW) share one
implementation.
"""

from __future__ import annotations

import copy
from typing import Callable

import numpy as np

from repro.core.baselines import Scheme, SchemePolicy, policy_for
from repro.core.cache import ClusterCache
from repro.core.config import DHnswConfig
from repro.core.engine import RemoteLayout
from repro.core.meta_index import MetaHnsw
from repro.core.results import BatchResult, QueryResult
from repro.core.fsck import RepairReport, repair_replica
from repro.errors import LayoutError, NoHealthyReplicaError
from repro.layout.metadata import GlobalMetadata
from repro.mutation.writer import InsertReport, MutationEngine
from repro.rdma.compute_node import ComputeNode
from repro.rdma.control import ControlClient
from repro.rdma.network import CostModel
from repro.serving.engine import ServingEngine
from repro.transport import (
    ReplicatedTransport,
    RetryingTransport,
    SimRdmaTransport,
    Transport,
    connect,
)
from repro.transport.retry import MAX_RETRIES

__all__ = ["DHnswClient", "InsertReport"]


class DHnswClient:
    """One compute instance serving vector queries over the remote layout."""

    def __init__(self, layout: RemoteLayout, meta: MetaHnsw,
                 config: DHnswConfig | None = None,
                 scheme: Scheme = Scheme.DHNSW,
                 cost_model: CostModel | None = None,
                 name: str = "compute0",
                 max_retries: int | None = None,
                 replica_transport_factory:
                 "Callable[[Transport, int], Transport] | None" = None
                 ) -> None:
        self.layout = layout
        self.config = config if config is not None else DHnswConfig()
        self.scheme = scheme
        self.policy: SchemePolicy = policy_for(scheme)
        self.cost_model = (cost_model if cost_model is not None
                           else CostModel())
        # Each instance caches its own copy of the lightweight meta-HNSW
        # (§3.1: "we cache the lightweight meta-HNSW in the compute pool").
        self.meta = copy.deepcopy(meta)

        self.node = ComputeNode(layout.memory_node, self.cost_model, name=name)
        # DRAM held outside the cluster cache: the meta-HNSW
        # (``dram_used_bytes``).
        self._fixed_dram_bytes = self.meta.serialized_size_bytes()
        self.cache = ClusterCache(
            self.config.cache_capacity_clusters(layout.metadata.num_clusters),
            capacity_bytes=self.config.hot_tier_budget_bytes)

        # The transport seam: every remote byte this client moves goes
        # through here; ``max_retries`` puts a retrying layer over it.
        #
        # With a replicated layout, each replica gets its own stack —
        # ``replica_transport_factory(base, index)`` decorates a single
        # replica (e.g. per-node fault injection), then a retrying layer
        # (``MAX_RETRIES`` re-attempts unless ``max_retries`` says
        # otherwise) absorbs transient errors, and the ReplicatedTransport
        # on top fails reads over / fans writes out.  All per-replica
        # transports share this client's clock, stats, and NIC channel.
        self.transport: Transport = SimRdmaTransport(self.node.qp)
        if layout.replicas:
            stack: list[Transport] = []
            for index, replica_node in enumerate(layout.memory_nodes):
                base: Transport = (
                    self.transport if index == 0
                    else connect(replica_node, self.node.clock,
                                 self.cost_model, self.node.stats))
                if replica_transport_factory is not None:
                    base = replica_transport_factory(base, index)
                stack.append(RetryingTransport(
                    base, MAX_RETRIES if max_retries is None
                    else max_retries))
            self.transport = ReplicatedTransport(stack,
                                                 seed=self.config.seed)
        elif max_retries is not None:
            self.transport = RetryingTransport(self.transport, max_retries)

        # The staged serving pipeline (Planner → Fetcher → Decoder →
        # Executor → Merger); reads client state late, so decorating
        # ``self.transport`` afterwards affects every stage.
        self.engine = ServingEngine(self)

        # The write-side sibling: slot reservation, shadow rebuilds,
        # sealed-tail retries (see ``repro.mutation``).
        self.mutation = MutationEngine(self)
        # Grace-period observer registration is lazy (first
        # ``refresh_metadata``), so an idle client pins nothing.
        self._observer_token: int | None = None

        # Connection setup: verify the region with the memory node's
        # control daemon (two-sided RPC), when one is attached.
        self.control: ControlClient | None = None
        if layout.daemon is not None:
            self.control = ControlClient(layout.daemon, self.node.clock,
                                         self.cost_model)
            base_addr, length = self.control.region_info(layout.rkey)
            if (base_addr, length) != (layout.region.base_addr,
                                       layout.region.length):
                raise LayoutError(
                    "control daemon disagrees with the layout handle "
                    f"about region {layout.rkey}")

        # Fetch the authoritative metadata block (one READ at startup).
        self.metadata = self._read_metadata()

    @property
    def dram_used_bytes(self) -> int:
        """Compute DRAM this instance holds: the meta-HNSW and what the
        cluster cache holds (:attr:`ClusterCache.held_bytes`)."""
        return self._fixed_dram_bytes + self.cache.held_bytes

    # ------------------------------------------------------------------
    # Resource lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release this client's grace-period pin, so retired extents it
        may have been reading become reclaimable (idempotent).

        Safe to call on a partially constructed client and after a failed
        ``with`` body — ``__exit__`` routes here unconditionally.
        """
        token = getattr(self, "_observer_token", None)
        if token is not None:
            self.layout.retired.deregister(token)
            self._observer_token = None

    def __enter__(self) -> "DHnswClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Metadata freshness
    # ------------------------------------------------------------------
    def _read_metadata(self) -> GlobalMetadata:
        blob = self.transport.read(
            self.layout.rkey, self.layout.addr(0),
            self.layout.metadata_nbytes)
        return GlobalMetadata.unpack(blob)

    def refresh_metadata(self) -> bool:
        """Peek the remote version; re-read the block if it moved.

        Returns True when a refresh happened.  Staleness is resolved at
        *group* granularity: only the members of groups whose version
        stamp advanced (plus any cluster whose entry changed) are
        invalidated, so one group's rebuild never evicts the rest of the
        cache.  Every refresh also reports the observed version to the
        deployment's grace-period ledger — the pin that keeps retired
        extents alive until every reader has moved past them.
        """
        head = self.transport.read(self.layout.rkey, self.layout.addr(0),
                                   16)
        remote_version = GlobalMetadata.peek_version(head)
        if remote_version == self.metadata.version:
            self.observe_version(self.metadata.version)
            return False
        self.adopt_metadata(self._read_metadata())
        return True

    def adopt_metadata(self, fresh: GlobalMetadata) -> None:
        """Serve from ``fresh`` from now on.

        Every cluster whose entry or group version changed is invalidated
        *before* the version is observed: observing it may hand the old
        extents, which those entries' zero-copy views alias, back to the
        allocator.  A refresh and a rebuild's cutover both adopt here, so
        a cutover whose re-read block carries a peer's rebuild of another
        group drops that group's members too.
        """
        stale_groups = {
            gid for gid, (old, new) in enumerate(zip(self.metadata.groups,
                                                     fresh.groups))
            if old.version != new.version}
        for cid, (old, new) in enumerate(zip(self.metadata.clusters,
                                             fresh.clusters)):
            if old != new or new.group_id in stale_groups:
                self.cache.invalidate(cid)
        self.metadata = fresh
        self.observe_version(fresh.version)

    def observe_version(self, version: int) -> None:
        """Report an observed metadata version to the grace-period ledger.

        Registers this client lazily on first call; any extent whose grace
        period just elapsed is returned to the allocator immediately.
        """
        log = self.layout.retired
        if self._observer_token is None:
            self._observer_token = log.register(version)
        else:
            log.observe(self._observer_token, version)
        freed = log.reclaim(self.layout.allocator)
        if freed:
            self.mutation.stats.reclaimed_bytes += freed

    # ------------------------------------------------------------------
    # Replica repair (fsck-driven, scheduled by the transport on failover)
    # ------------------------------------------------------------------
    def _replicated_transport(self) -> ReplicatedTransport | None:
        """The replication layer of this client's transport stack, if any."""
        transport = self.transport
        while transport is not None:
            if isinstance(transport, ReplicatedTransport):
                return transport
            transport = getattr(transport, "inner", None)
        return None

    def run_pending_repairs(self) -> "list[RepairReport]":
        """Repair every replica the transport marked unhealthy.

        For each queued target, re-copies damaged extents byte-for-byte
        from a healthy replica (``repro.core.fsck.repair_replica``) and
        returns the replica to the selectable set.  Repair runs on the
        memory pool's control path, off this client's request timeline,
        so no SimClock time is charged here.  Returns one report per
        repaired replica (empty when nothing was queued).
        """
        replicated = self._replicated_transport()
        if replicated is None:
            return []
        targets = replicated.drain_repairs()
        if targets:
            # Repair rewrites extents in place on the target replica.
            # Cached entries may hold zero-copy views over any replica's
            # memory (reads fan in from whichever replica served them),
            # so privatize them before the bytes underneath change.
            self.cache.materialize_all()
        reports: list[RepairReport] = []
        for target in targets:
            healthy = replicated.selector.healthy_replicas()
            if not healthy:
                raise NoHealthyReplicaError(
                    f"cannot repair replica {target}: no healthy source "
                    f"replica remains", op="REPAIR")
            reports.append(repair_replica(self.layout, target=target,
                                          source=healthy[0]))
            replicated.mark_repaired(target)
        return reports

    # ------------------------------------------------------------------
    # Search (façade over the serving engine)
    # ------------------------------------------------------------------
    def search(self, query: np.ndarray, k: int,
               ef_search: int | None = None) -> QueryResult:
        """Top-``k`` for one query (a batch of one)."""
        return self.search_batch(np.atleast_2d(query), k, ef_search).results[0]

    def search_batch(self, queries: np.ndarray, k: int,
                     ef_search: int | None = None,
                     filter_fn: "Callable[[int], bool] | None" = None
                     ) -> BatchResult:
        """Answer a batch of queries with full latency/traffic accounting.

        ``ef_search`` is the sub-HNSW beam width the paper sweeps (1..48);
        it defaults to ``2 * k``, and the beam is never below ``k``.

        ``filter_fn`` optionally restricts results to global ids it
        accepts (metadata filtering, the standard vector-database
        requirement).  Filtering is applied post-search, so heavily
        selective filters may return fewer than ``k`` results — raise
        ``ef_search`` to compensate.
        """
        return self.engine.search_batch(queries, k, ef_search, filter_fn)

    # ------------------------------------------------------------------
    # Mutation (façade over ``repro.mutation``: §3.2 FAA reservation +
    # WRITE, multi-writer CAS coordination, shadow rebuilds)
    # ------------------------------------------------------------------
    def insert(self, vector: np.ndarray, global_id: int) -> InsertReport:
        """Insert a vector: route via meta-HNSW, reserve an overflow slot
        with a remote fetch-and-add, WRITE the record.

        A full overflow triggers a shadow group rebuild (both clusters
        merged with their overflow records and relocated behind a
        version-stamped cutover); reservations racing a concurrent
        writer's rebuild retry against the relocated group.
        """
        return self.mutation.insert(vector, global_id)

    def delete(self, vector: np.ndarray, global_id: int) -> InsertReport:
        """Logically delete ``global_id`` by writing a tombstone record.

        ``vector`` is the deleted item's embedding — it routes the
        tombstone to the cluster that holds the item, exactly as the
        original insert (or build-time partitioning) did.  Costs the same
        as an insert: one FAA plus one WRITE.  The id disappears from
        search results immediately; physical space is reclaimed at the
        next rebuild of the group.
        """
        return self.mutation.delete(vector, global_id)

    def insert_batch(self, vectors: np.ndarray,
                     global_ids: list[int]) -> list[InsertReport]:
        """Insert many vectors with batched network operations.

        Vectors headed for the same group share FAA slot-run
        reservations, and record WRITEs across groups are
        doorbell-batched under the full d-HNSW scheme — the write-side
        analogue of query-aware batched loading.  Batches larger than a
        group's overflow capacity split across multiple reservations
        with rebuilds in between.
        """
        return self.mutation.insert_batch(vectors, global_ids)
