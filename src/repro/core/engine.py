"""Building a d-HNSW deployment and the shared remote-layout handle.

:class:`DHnswBuilder` performs the offline pipeline of §3.1–§3.2:

1. uniformly sample representatives and build the three-layer meta-HNSW;
2. classify every corpus vector to its nearest representative, forming
   partitions;
3. build one sub-HNSW per partition — in-process or fanned over a
   process pool (``DHnswConfig.build_workers``), byte-identically;
4. serialize the clusters and stream them into paired groups with shared
   overflow areas (placement uses sizes only, so blobs are produced and
   released one at a time);
5. register a remote region on the memory node and write blobs + the
   versioned global metadata block through the transport layer.

The result is a :class:`RemoteLayout` — everything a compute instance
needs to reach the index — plus the meta-HNSW that every compute instance
caches locally.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

import numpy as np

from repro.core.build_pool import BuildPool
from repro.core.config import META_PARAMS, SUB_PARAMS, DHnswConfig
from repro.core.meta_index import MetaHnsw, sample_representatives
from repro.core.partitions import (Partitioning, assign_partitions,
                                   build_sub_hnsws, cluster_build_tasks)
from repro.errors import LayoutError, NonFiniteVectorError
from repro.hnsw.parallel_build import build_cluster_blob
from repro.layout.allocator import RegionAllocator
from repro.layout.group_layout import plan_groups
from repro.layout.metadata import GlobalMetadata, rebuild_lock_offset
from repro.mutation.reclaim import RetiredExtentLog
from repro.layout.serializer import serialize_cluster, serialized_cluster_size
from repro.rdma import MemoryNode, MemoryRegion
from repro.rdma.clock import SimClock
from repro.rdma.control import ControlClient, MemoryDaemon
from repro.rdma.network import CostModel
from repro.rdma.stats import RdmaStats
from repro.transport import ReplicatedTransport
from repro.transport import connect as connect_transport

__all__ = ["RemoteLayout", "BuildReport", "DHnswBuilder"]

_METADATA_ALIGN = 4096


@dataclasses.dataclass
class RemoteLayout:
    """Handle to a d-HNSW layout resident in disaggregated memory.

    Shared by every compute instance of a deployment.  ``metadata`` mirrors
    the authoritative block at the head of the remote region; clients keep
    their *own* cached copies and use the remote version counter to detect
    staleness, exactly as the paper's compute instances do.
    """

    memory_node: MemoryNode
    region: MemoryRegion
    allocator: RegionAllocator
    metadata: GlobalMetadata
    dim: int
    daemon: MemoryDaemon | None = None
    #: Secondary memory nodes holding byte-identical copies of the region
    #: (``DHnswConfig.replication_factor`` - 1 of them).  Each registered
    #: the same capacity as a fresh node, so rkey and base_addr match the
    #: primary and one address space reaches every replica.
    replicas: list[MemoryNode] = dataclasses.field(default_factory=list)
    #: Grace-period ledger of extents retired by shadow rebuilds.
    #: Host-side control-plane state shared by every client of the
    #: deployment; space returns to ``allocator`` only once all
    #: registered readers have observed the retiring version.
    retired: RetiredExtentLog = dataclasses.field(
        default_factory=RetiredExtentLog)

    @property
    def memory_nodes(self) -> list[MemoryNode]:
        """All replicas of the pool, primary first."""
        return [self.memory_node, *self.replicas]

    @property
    def rkey(self) -> int:
        """Remote key of the registered region."""
        return self.region.rkey

    def addr(self, offset: int) -> int:
        """Absolute remote address of a region-relative offset."""
        return self.region.base_addr + offset

    @property
    def metadata_nbytes(self) -> int:
        """Serialized size of the metadata block; constant for a
        deployment."""
        return GlobalMetadata.packed_size(self.metadata.num_clusters,
                                          self.metadata.num_groups)


@dataclasses.dataclass(frozen=True)
class BuildReport:
    """What the offline build produced and what it cost."""

    num_vectors: int
    num_partitions: int
    num_groups: int
    meta_hnsw_bytes: int
    total_blob_bytes: int
    region_capacity_bytes: int
    partition_sizes: np.ndarray
    build_network: RdmaStats


class DHnswBuilder:
    """Offline construction of a d-HNSW deployment."""

    def __init__(self, config: DHnswConfig | None = None,
                 cost_model: CostModel | None = None,
                 memory_node: MemoryNode | None = None) -> None:
        self.config = config if config is not None else DHnswConfig()
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.memory_node = (memory_node if memory_node is not None
                            else MemoryNode())

    # ------------------------------------------------------------------
    def build(self, vectors: np.ndarray,
              labels: np.ndarray | None = None
              ) -> tuple[MetaHnsw, RemoteLayout, BuildReport]:
        """Run the full §3.1–§3.2 pipeline over ``vectors``.

        ``labels`` optionally assigns each corpus row a global id
        (sharded deployments use corpus-wide row numbers).
        """
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if vectors.shape[0] < 1:
            raise LayoutError("cannot build over an empty corpus")
        NonFiniteVectorError.check(vectors, "corpus")
        meta, partitioning = self._build_meta(vectors)
        source = _ClusterBlobSource(vectors, partitioning, labels,
                                    self.config.build_workers)
        layout, build_stats = self._write_layout(
            source, vectors.shape[1], partitioning.num_partitions)
        report = BuildReport(
            num_vectors=vectors.shape[0],
            num_partitions=meta.num_partitions,
            num_groups=layout.metadata.num_groups,
            meta_hnsw_bytes=meta.serialized_size_bytes(),
            total_blob_bytes=source.total_blob_bytes,
            region_capacity_bytes=layout.region.length,
            partition_sizes=partitioning.sizes(),
            build_network=build_stats,
        )
        return meta, layout, report

    # ------------------------------------------------------------------
    def _build_meta(self, vectors: np.ndarray
                    ) -> tuple[MetaHnsw, Partitioning]:
        rng = np.random.default_rng(self.config.seed)
        num_reps = self.config.derived_num_representatives(vectors.shape[0])
        rep_rows = sample_representatives(vectors.shape[0], num_reps, rng)
        meta = MetaHnsw(vectors[rep_rows], META_PARAMS)
        partitioning = assign_partitions(vectors, meta)
        return meta, partitioning

    def _write_layout(self, source: "_ClusterBlobSource",
                      dim: int, num_clusters: int
                      ) -> tuple[RemoteLayout, RdmaStats]:
        num_groups = (num_clusters + 1) // 2
        metadata_size = GlobalMetadata.packed_size(num_clusters, num_groups)
        # The reserve holds the metadata block followed by one rebuild
        # lock word per group (region bytes start zeroed = unlocked);
        # ``rebuild_lock_offset(metadata_size, num_groups)`` is one past
        # the last lock word.
        reserve_end = rebuild_lock_offset(metadata_size, num_groups)
        reserve = reserve_end + (-reserve_end) % _METADATA_ALIGN
        plans, cluster_entries, group_entries = plan_groups(
            source.sizes(), dim, self.config.overflow_capacity_records,
            reserve)
        layout_end = plans[-1].end_offset if plans else reserve
        capacity = int(layout_end * self.config.region_headroom) + reserve

        # Registration goes through the memory node's control daemon —
        # the one task the paper leaves on the memory instance's CPU.
        clock = SimClock()
        daemon = MemoryDaemon(self.memory_node)
        control = ControlClient(daemon, clock, self.cost_model)
        rkey, _, _ = control.alloc_region(capacity)
        region = self.memory_node.get_region(rkey)

        # Secondary replicas: fresh nodes register identically-sized
        # regions, so rkey/base_addr line up with the primary and the
        # same descriptors address every copy.
        replica_nodes: list[MemoryNode] = []
        for i in range(1, self.config.replication_factor):
            node = MemoryNode(name=f"{self.memory_node.name}-r{i}")
            mirror = node.register(capacity)
            if (mirror.rkey, mirror.base_addr) != (region.rkey,
                                                   region.base_addr):
                raise LayoutError(
                    f"replica {i} registered (rkey={mirror.rkey}, "
                    f"base=0x{mirror.base_addr:x}) but the primary is "
                    f"(rkey={region.rkey}, base=0x{region.base_addr:x}); "
                    f"replica nodes must be fresh")
            replica_nodes.append(node)

        allocator = RegionAllocator(capacity, metadata_reserve=reserve)
        # Claim the initial groups from the allocator so rebuild
        # relocations start allocating at the layout tail.
        if layout_end > reserve:
            allocator.allocate(layout_end - reserve)

        metadata = GlobalMetadata(
            version=1, dim=dim,
            overflow_capacity_records=self.config.overflow_capacity_records,
            clusters=cluster_entries, groups=group_entries)
        layout = RemoteLayout(memory_node=self.memory_node, region=region,
                              allocator=allocator, metadata=metadata,
                              dim=dim, daemon=daemon, replicas=replica_nodes)

        # Bulk-load through a build-time transport; traffic is reported
        # separately from query-time stats.  With replication the load
        # goes through a ReplicatedTransport so the same write loop fans
        # every blob out to all k nodes.
        stats = RdmaStats()
        transport = connect_transport(self.memory_node, clock,
                                      self.cost_model, stats)
        if replica_nodes:
            mirrors = [connect_transport(node, clock, self.cost_model, stats)
                       for node in replica_nodes]
            transport = ReplicatedTransport([transport, *mirrors],
                                            seed=self.config.seed)
        blobs = source.blobs()
        for cid, entry in enumerate(cluster_entries):
            blob = self._next_blob(blobs, cid, entry.blob_length)
            transport.write(region.rkey, layout.addr(entry.blob_offset),
                            blob)
        # Overflow areas start zeroed; fresh registrations already are.
        transport.write(region.rkey, layout.addr(0), metadata.pack())
        transport.close()
        return layout, stats

    @staticmethod
    def _next_blob(blobs: Iterator[tuple[int, bytes]], cluster_id: int,
                   nbytes: int) -> bytes:
        """Pull the next streamed blob, guarding serializer/planner drift."""
        actual_id, blob = next(blobs)
        if actual_id != cluster_id or len(blob) != nbytes:
            raise LayoutError(
                f"planned cluster {cluster_id} ({nbytes} B) but serialized "
                f"cluster {actual_id} ({len(blob)} B)")
        return blob


class _ClusterBlobSource:
    """Streams cluster sizes, then blobs, in cluster-id order.

    Placement only needs sizes (:func:`plan_groups` consumes
    :meth:`sizes` as an iterator with a running byte total), so blobs
    are materialized one at a time during the write loop and released
    as soon as they are written — the build never holds every blob at
    once.

    ``workers == 0``: sub-HNSWs build in-process (exact sizes come from
    :func:`serialized_cluster_size` without serializing) and each index
    is dropped right after its blob is produced.  ``workers >= 1``:
    per-cluster tasks fan out over a :class:`BuildPool`; workers return
    serialized blobs, which are byte-identical to the in-process build's
    because every task derives its seed from the root seed + cluster id.
    """

    def __init__(self, vectors: np.ndarray, partitioning: Partitioning,
                 labels: np.ndarray | None, workers: int) -> None:
        self.total_blob_bytes = 0
        self._blobs: list[bytes | None] | None = None
        self._indexes: list | None = None
        if workers > 0:
            tasks = cluster_build_tasks(vectors, partitioning, SUB_PARAMS,
                                        labels=labels)
            with BuildPool(workers) as pool:
                self._blobs = list(pool.map(build_cluster_blob, tasks))
        else:
            self._indexes = build_sub_hnsws(vectors, partitioning,
                                            SUB_PARAMS, labels=labels)

    def sizes(self) -> Iterator[tuple[int, int]]:
        """Yield ``(cluster_id, blob size)`` while summing the total."""
        if self._blobs is not None:
            for cluster_id, blob in enumerate(self._blobs):
                self.total_blob_bytes += len(blob)
                yield cluster_id, len(blob)
        else:
            for cluster_id, index in enumerate(self._indexes):
                nbytes = serialized_cluster_size(index)
                self.total_blob_bytes += nbytes
                yield cluster_id, nbytes

    def blobs(self) -> Iterator[tuple[int, bytes]]:
        """Yield ``(cluster_id, blob)`` once each, releasing as it goes."""
        if self._blobs is not None:
            for cluster_id in range(len(self._blobs)):
                blob = self._blobs[cluster_id]
                self._blobs[cluster_id] = None
                yield cluster_id, blob
        else:
            for cluster_id in range(len(self._indexes)):
                blob = serialize_cluster(self._indexes[cluster_id],
                                         cluster_id)
                self._indexes[cluster_id] = None
                yield cluster_id, blob
