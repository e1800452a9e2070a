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
  wrap the compute node's queue pair in decorators (fault injection,
  retries); every stage reads it per call.
* :mod:`repro.serving` — the batched query path is the staged pipeline
  Planner → Fetcher → Decoder → Executor → Merger composed by
  :attr:`DHnswClient.engine`.
* :mod:`repro.mutation` — the write path (insert / delete / batched
  insert, CAS-coordinated shadow rebuilds, grace-period reclamation)
  composed by :attr:`DHnswClient.mutation`.

Every stage is built from one :class:`~repro.core.context.ClientContext`
(``client.ctx``), never from the client; callers that need a single stage
reach it through ``client.engine`` / ``client.mutation`` (``client.engine.
fetcher``, ``client.mutation.rebuild_group`` …), and the client itself
exposes only the request-level API.

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
from repro.core.context import ClientContext
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
        transport: Transport = self.node.qp
        if layout.replicas:
            stack: list[Transport] = []
            for index, replica_node in enumerate(layout.memory_nodes):
                base: Transport = (
                    transport if index == 0
                    else connect(replica_node, self.node.clock,
                                 self.cost_model, self.node.stats))
                if replica_transport_factory is not None:
                    base = replica_transport_factory(base, index)
                stack.append(RetryingTransport(
                    base, MAX_RETRIES if max_retries is None
                    else max_retries))
            transport = ReplicatedTransport(stack, seed=self.config.seed)
        elif max_retries is not None:
            transport = RetryingTransport(transport, max_retries)

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

        # What every stage is built from; it reads the metadata block (one
        # READ) and resolves ``self.transport`` at each verb.
        self.ctx = ClientContext(layout, self.meta, self.config, self.policy,
                                 self.cost_model, self.node, self.cache,
                                 transport)
        # The staged serving pipeline (Planner → Fetcher → Decoder →
        # Executor → Merger).
        self.engine = ServingEngine(self.ctx)
        # The write-side sibling: slot reservation, shadow rebuilds,
        # sealed-tail retries (see ``repro.mutation``).
        self.mutation = MutationEngine(self.ctx)

    @property
    def transport(self) -> Transport:
        """Every stage's transport; assign a decorated one to install it."""
        return self.ctx.transport

    @transport.setter
    def transport(self, transport: Transport) -> None:
        self.ctx.transport = transport

    @property
    def metadata(self) -> GlobalMetadata:
        """This client's view of the metadata block."""
        return self.ctx.metadata

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
        ctx = getattr(self, "ctx", None)
        if ctx is not None:
            ctx.close()

    def __enter__(self) -> "DHnswClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

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
