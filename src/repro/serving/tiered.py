"""Tiered cluster store: hot full-precision serves over a PQ cold tier.

The d-HNSW hot path caches entire sub-HNSW clusters full-precision in
compute DRAM, so footprint scales with the *working* set.  This stage
breaks that: every cluster also has a compact cold extent on the memory
node (PQ codes — see :mod:`repro.layout.cold`), and the store decides
per batch which
required clusters are served **hot** (fetched/cached full-precision and
beam-searched, exactly as before) and which are served **cold**:

1. one doorbell-batched READ pulls the cold extents plus the involved
   groups' 8-byte overflow tails (a second narrow READ pulls any
   overflow records);
2. ADC candidate generation: an asymmetric scan over the short codes;
3. the best ``rerank_depth`` candidates' *full* vectors are fetched in
   a second doorbell READ straight out of the hot blob's vector section
   (``vectors_offset`` + 4·dim·node) and reranked exactly.

Which clusters are hot is the cluster cache's call, not this store's:
the cache is the hot tier, its byte cap is ``hot_tier_budget_bytes``.
A resident cluster is served hot; a missing one is fetched hot exactly
when the cache would admit it, judged before the fetch on the bytes that
fetch would read (:meth:`~repro.core.cache.ClusterCache.admissions`);
every other cluster is served cold.  Promotions and demotions are the
cache's admissions and evictions.

Everything here is charged to the simulated clock through the same
transport and compute-cost paths the hot tier uses, and shows up on the
request trace under the ``cold-fetch`` / ``cold-compute`` /
``rerank-fetch`` stages.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import LayoutError, SerializationError
from repro.hnsw.distance import DistanceKernel
from repro.layout.cold import deserialize_cold_cluster
from repro.layout.group_layout import (live_overflow_count,
                                       overflow_slot_offset,
                                       overflow_tail_extent)
from repro.layout.serializer import (overflow_record_size,
                                     replay_overflow,
                                     unpack_overflow_records)
from repro.pq.codebook import PqCodebook
from repro.serving.trace import TraceContext, span
from repro.transport import ReadDescriptor

__all__ = ["ColdExecution", "TieredClusterStore"]

#: Two-phase ADC scan: the full scan prices every node at
#: ``num_subspaces`` lookup-adds, which dominates cold compute once the
#: codebook is fine enough to rank well.  Instead the scan scores every
#: node on a strided half of the subspaces (capturing components across
#: the whole vector), and only a small multiple of the final shortlist
#: is re-scored with the remaining subspaces.
_COARSE_FRACTION = 2       # scan with num_subspaces // 2 subspaces
_MIN_COARSE_SUBSPACES = 8
_REFINE_FACTOR = 2         # refine 2 x rerank_depth candidates


@dataclasses.dataclass
class ColdExecution:
    """Accounting for the cold side of one batch."""

    clusters: int = 0           # distinct clusters served cold
    evals: int = 0              # candidate scorings (ADC + exact rerank)
    compute_us: float = 0.0     # simulated compute charged by the cold path


class TieredClusterStore:
    """Per-batch hot/cold routing and the cold serve."""

    def __init__(self, host, codebook: PqCodebook) -> None:
        self.host = host
        self.codebook = codebook
        if host.metadata.cold is None:
            raise LayoutError(
                "tiered store requires a layout with a cold directory")
        self.kernel = DistanceKernel(host.metadata.dim)
        self.hot_serves = 0
        self.cold_serves = 0
        # Two-phase scan split: a strided half of the subspaces for
        # the coarse pass (striding samples components across the whole
        # vector), the rest for refinement.  A codebook too small to
        # split is scanned whole and never refined.
        num_subspaces = codebook.num_subspaces
        num_coarse = max(_MIN_COARSE_SUBSPACES,
                         num_subspaces // _COARSE_FRACTION)
        if num_coarse < num_subspaces:
            self._scan_columns = np.linspace(
                0, num_subspaces, num_coarse,
                endpoint=False).astype(np.int64)
            rest = np.ones(num_subspaces, dtype=bool)
            rest[self._scan_columns] = False
            self._rest_columns = np.flatnonzero(rest)
        else:
            self._scan_columns = np.arange(num_subspaces)
            self._rest_columns = None

    # ------------------------------------------------------------------
    # Per-batch split
    # ------------------------------------------------------------------
    def split(self, required: list[list[int]]
              ) -> tuple[list[list[int]], dict[int, list[int]]]:
        """Partition routed clusters into hot lists and a cold demand map.

        Returns ``(hot_required, cold_required)`` where ``hot_required``
        mirrors ``required`` with cold clusters removed (it feeds the
        unchanged wave planner) and ``cold_required`` maps each cold
        cluster id to the sorted query indices that need it.  A cluster
        is hot when it is resident or the cache would admit it, offered
        at the bytes its fetch would read; the access frequencies the
        cache ranks by were recorded for this batch by the serving engine
        before the split.
        """
        host = self.host
        cold_dir = host.metadata.cold
        unique = sorted({cid for row in required for cid in row})
        missing = [cid for cid in unique if host.cache.peek(cid) is None]
        _, extents = host.engine.fetcher.extent_descriptors(missing)
        # The batch's hits stay pinned until they are searched: no fetch
        # of the batch can count on evicting one.
        admitted = host.cache.admissions(
            {cid: sum(length for _, length in ranges)
             for cid, ranges in extents}, host.node.clock.now_us,
            pinned=set(unique).difference(missing))
        serve_cold = {cid for cid in missing if cid not in admitted
                      and cold_dir.extents[cid].length > 0}
        self.hot_serves += len(unique) - len(serve_cold)
        self.cold_serves += len(serve_cold)
        hot_required = [[cid for cid in row if cid not in serve_cold]
                        for row in required]
        cold_required: dict[int, list[int]] = {cid: [] for cid
                                               in sorted(serve_cold)}
        for query_index, row in enumerate(required):
            for cid in row:
                if cid in serve_cold:
                    bucket = cold_required[cid]
                    if not bucket or bucket[-1] != query_index:
                        bucket.append(query_index)
        return hot_required, cold_required

    # ------------------------------------------------------------------
    # Cold serving
    # ------------------------------------------------------------------
    def execute_cold(self, cold_required: dict[int, list[int]],
                     queries: np.ndarray, merger, k: int,
                     trace: TraceContext | None = None) -> ColdExecution:
        """Serve every cold cluster's queries; feeds ``merger`` directly."""
        execution = ColdExecution()
        if not cold_required:
            return execution
        host = self.host
        metadata = host.metadata
        cold_dir = metadata.cold
        cids = sorted(cold_required)
        execution.clusters = len(cids)
        group_ids = sorted({metadata.clusters[cid].group_id
                            for cid in cids})

        # Round 1: every cold extent plus each involved group's overflow
        # tail counter, one doorbell.
        descriptors = [ReadDescriptor(
            host.layout.rkey,
            host.layout.addr(cold_dir.extents[cid].offset),
            cold_dir.extents[cid].length) for cid in cids]
        for gid in group_ids:
            offset, length = overflow_tail_extent(metadata.groups[gid])
            descriptors.append(ReadDescriptor(
                host.layout.rkey, host.layout.addr(offset), length))
        with span(trace, "cold-fetch"):
            payloads = host.transport.read_batch(
                descriptors, doorbell=host.policy.doorbell_batching)
        cold_payloads = payloads[:len(cids)]
        # A tail sealed by a cutover raises StaleReadError here: the cold
        # extents just read belong to the retired epoch too.
        tails = {gid: live_overflow_count(
                     payload, metadata.groups[gid].capacity_records,
                     f"overflow tail of group {gid}")
                 for gid, payload in zip(group_ids, payloads[len(cids):])}

        # Narrow second read: overflow records of groups that have any.
        record_size = overflow_record_size(metadata.dim)
        live_groups = [gid for gid in group_ids if tails[gid] > 0]
        records_by_group: dict[int, list] = {}
        if live_groups:
            record_reads = [ReadDescriptor(
                host.layout.rkey,
                host.layout.addr(overflow_slot_offset(
                    metadata.groups[gid].overflow_offset, metadata.dim, 0)),
                tails[gid] * record_size) for gid in live_groups]
            with span(trace, "cold-fetch"):
                blobs = host.transport.read_batch(
                    record_reads, doorbell=host.policy.doorbell_batching)
            for gid, blob in zip(live_groups, blobs):
                records_by_group[gid] = unpack_overflow_records(
                    blob, metadata.dim, tails[gid])

        # ADC candidate generation.  The codebook is deployment-global,
        # so a query's lookup tables are shared by every cold cluster it
        # probes — build them once per query, not per (cluster, query).
        with span(trace, "cold-compute"):
            execution.compute_us += host.node.charge_time(
                host.cost_model.deserialize_us(
                    sum(len(p) for p in cold_payloads)))
        rerank_depth = max(host.config.rerank_depth, k)
        tables_cache: dict[int, np.ndarray] = {}
        # query -> per-cluster (cid, nodes, approx, labels) candidate pools.
        pools: dict[int, list] = {}
        # cid -> code matrix, kept while coarse scan sums await refinement.
        codes_by_cid: dict[int, np.ndarray] = {}
        # cid -> region-relative offset of its full vector section.
        vectors_offsets: dict[int, int] = {}
        scan = self._scan_columns
        rest = self._rest_columns
        for cid, payload in zip(cids, cold_payloads):
            cold = deserialize_cold_cluster(payload)
            if cold.cluster_id != cid:
                raise SerializationError(
                    f"cold extent for cluster {cid} decodes as cluster "
                    f"{cold.cluster_id}")
            gid = metadata.clusters[cid].group_id
            records = [record for record
                       in records_by_group.get(gid, [])
                       if record.cluster_id == cid]
            state = replay_overflow(records)
            live = [record for record in state.values()
                    if record is not None]
            live_matrix = (np.stack([record.vector for record in live])
                           if live else None)
            live_gids = (np.array([record.global_id for record in live],
                                  dtype=np.int64) if live else None)
            dead_gids = (np.fromiter(state.keys(), dtype=np.int64,
                                     count=len(state)) if state else None)
            keep_nodes = np.arange(cold.num_nodes)
            if dead_gids is not None and cold.num_nodes:
                keep_nodes = keep_nodes[~np.isin(cold.labels, dead_gids)]
            if rest is not None:
                codes_by_cid[cid] = cold.codes
            scan_codes = cold.codes[keep_nodes][:, scan]
            for query_index in cold_required[cid]:
                query = queries[query_index]
                with span(trace, "cold-compute"):
                    tables = tables_cache.get(query_index)
                    if tables is None:
                        # Table build ~ num_centroids distance evals at
                        # full dim, paid once per query per batch.
                        tables = self.codebook.adc_tables(query)
                        tables_cache[query_index] = tables
                        execution.compute_us += host.node.charge_compute(
                            self.codebook.num_centroids, metadata.dim)
                    # A scan costs one lookup-add per scored candidate
                    # per scanned subspace (the coarse half in
                    # two-phase mode).
                    approx = tables[scan[None, :], scan_codes].sum(axis=1)
                    execution.compute_us += host.node.charge_compute(
                        len(keep_nodes), len(scan))
                    execution.evals += len(keep_nodes)
                pools.setdefault(query_index, []).append(
                    (cid, keep_nodes, approx, cold.labels))
                if live_matrix is not None:
                    with span(trace, "cold-compute"):
                        overflow_dists = self.kernel.many(query,
                                                          live_matrix)
                        execution.compute_us += host.node.charge_compute(
                            len(live), metadata.dim)
                        execution.evals += len(live)
                    merger.add(query_index, live_gids,
                               np.asarray(overflow_dists,
                                          dtype=np.float64))
            vectors_offsets[cid] = cold.vectors_offset

        # Global per-query shortlist: merge candidate pools across the
        # query's cold clusters, refine the coarse scan sums with the
        # held-out subspaces for a small multiple of the shortlist, and
        # keep exactly ``rerank_depth`` of them (lexsort ties on global
        # id, matching exact_knn's order).
        candidate_slots: dict[tuple[int, int], int] = {}
        shortlists: list[tuple[int, np.ndarray, np.ndarray,
                               np.ndarray]] = []
        for query_index in sorted(pools):
            chunks = pools[query_index]
            pool_cids = np.concatenate(
                [np.full(len(nodes), cid, dtype=np.int64)
                 for cid, nodes, _, _ in chunks])
            pool_nodes = np.concatenate(
                [nodes for _, nodes, _, _ in chunks])
            pool_approx = np.concatenate(
                [approx for _, _, approx, _ in chunks])
            pool_labels = np.concatenate(
                [labels[nodes] for _, nodes, _, labels in chunks])
            order = np.lexsort(
                (pool_labels, pool_approx))[:_REFINE_FACTOR * rerank_depth]
            if rest is not None and len(order) > rerank_depth:
                tables = tables_cache[query_index]
                refined = pool_approx[order].copy()
                for cid in np.unique(pool_cids[order]):
                    mask = pool_cids[order] == cid
                    codes = codes_by_cid[cid][pool_nodes[order][mask]]
                    refined[mask] += tables[rest[None, :],
                                            codes[:, rest]].sum(axis=1)
                with span(trace, "cold-compute"):
                    execution.compute_us += host.node.charge_compute(
                        len(order), len(rest))
                    execution.evals += len(order)
                keep = np.lexsort(
                    (pool_labels[order], refined))[:rerank_depth]
                order = order[keep]
            else:
                order = order[:rerank_depth]
            chosen_cids = pool_cids[order]
            chosen_nodes = pool_nodes[order]
            for cid, node in zip(chosen_cids.tolist(),
                                 chosen_nodes.tolist()):
                candidate_slots.setdefault((cid, node),
                                           len(candidate_slots))
            shortlists.append((query_index, chosen_cids, chosen_nodes,
                               pool_labels[order]))

        # One narrow doorbell READ for the union of rerank candidates'
        # full vectors, straight out of the hot blobs' vector sections.
        # The candidates are scattered rows of each cluster's contiguous
        # vector section, and every WQE costs PCIe DMA plus a share of
        # its ring's RTT — so neighboring candidates are coalesced into
        # one wider READ whenever the bridged gap serializes faster than
        # another work request would cost.
        vector_bytes = 4 * metadata.dim
        cost = host.cost_model
        if host.policy.doorbell_batching:
            wqe_us = (cost.pcie_us_per_wqe
                      + (cost.base_rtt_us + cost.doorbell_split_penalty_us)
                      / cost.doorbell_limit)
        else:
            wqe_us = cost.base_rtt_us + cost.pcie_us_per_wqe
        gap_limit = int(wqe_us * cost.bytes_per_us)
        nodes_by_cid: dict[int, list[int]] = {}
        for cid, node in candidate_slots:
            nodes_by_cid.setdefault(cid, []).append(node)
        runs: list[tuple[int, int, list[int]]] = []  # (cid, first, members)
        for cid in sorted(nodes_by_cid):
            nodes = sorted(nodes_by_cid[cid])
            first = nodes[0]
            members = [first]
            for node in nodes[1:]:
                if (node - members[-1] - 1) * vector_bytes <= gap_limit:
                    members.append(node)
                    continue
                runs.append((cid, first, members))
                first = node
                members = [node]
            runs.append((cid, first, members))
        rerank_reads = [ReadDescriptor(
            host.layout.rkey,
            host.layout.addr(vectors_offsets[cid]
                             + first * vector_bytes),
            (members[-1] - first + 1) * vector_bytes)
            for cid, first, members in runs]
        vectors = np.empty((len(candidate_slots), metadata.dim),
                           dtype=np.float32)
        if rerank_reads:
            with span(trace, "rerank-fetch"):
                payloads = host.transport.read_batch(
                    rerank_reads, doorbell=host.policy.doorbell_batching)
            for (cid, first, members), payload in zip(runs, payloads):
                view = np.frombuffer(
                    payload, dtype=np.float32,
                    count=(members[-1] - first + 1) * metadata.dim
                ).reshape(-1, metadata.dim)
                rows = [candidate_slots[(cid, node)] for node in members]
                vectors[rows] = view[np.asarray(members, dtype=np.int64)
                                     - first]

        # Exact rerank of each query's global shortlist.
        for query_index, chosen_cids, chosen_nodes, labels in shortlists:
            if not len(chosen_nodes):
                continue
            rows = [candidate_slots[(cid, node)]
                    for cid, node in zip(chosen_cids.tolist(),
                                         chosen_nodes.tolist())]
            with span(trace, "cold-compute"):
                exact = self.kernel.many(queries[query_index],
                                         vectors[rows])
                execution.compute_us += host.node.charge_compute(
                    len(rows), metadata.dim)
                execution.evals += len(rows)
            merger.add(query_index, labels,
                       np.asarray(exact, dtype=np.float64))
        return execution
