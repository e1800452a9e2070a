"""Operational telemetry: structured snapshots of a running deployment.

Pulls every ledger the simulator maintains — data-path RDMA counters,
control-path RPC counters, compute time, cache effectiveness, DRAM
budgets, remote-region occupancy — into plain dataclasses plus a text
report, so examples, the CLI, and operators of a real port all read the
same numbers the benchmarks assert on.
"""

from __future__ import annotations

import dataclasses
import resource
import sys

from repro.cluster.deployment import Deployment
from repro.core.client import DHnswClient
from repro.serving.trace import StageReport, TraceContext

__all__ = ["CacheTelemetry", "ClientTelemetry", "DeploymentTelemetry",
           "StageReport", "TraceContext", "peak_rss_bytes", "render_report",
           "render_trace"]


def _maxrss_to_bytes(ru_maxrss: int, platform: str | None = None) -> int:
    """Normalize a raw ``ru_maxrss`` reading to bytes.

    POSIX leaves the unit implementation-defined: Linux (and the BSDs)
    report kilobytes, macOS reports bytes.  Split out from
    :func:`peak_rss_bytes` so the conversion is regression-testable on
    any host without mocking ``getrusage``.
    """
    if (platform if platform is not None else sys.platform) == "darwin":
        return int(ru_maxrss)
    return int(ru_maxrss) * 1024


def peak_rss_bytes() -> int:
    """This process's peak resident set size, in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalized
    here so benchmark gates (e.g. ``BENCH_scale.json``'s RSS budget) and
    the operator report agree across hosts.
    """
    return _maxrss_to_bytes(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


@dataclasses.dataclass(frozen=True)
class CacheTelemetry:
    """Cluster-cache effectiveness counters."""

    capacity_clusters: int
    resident_clusters: int
    cached_bytes: int
    hits: int
    misses: int
    evictions: int
    invalidations: int
    #: Fetched clusters worth less than every evictable resident:
    #: searched in their wave, never admitted.
    streamed: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served locally."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclasses.dataclass(frozen=True)
class ClientTelemetry:
    """One compute instance's complete ledger."""

    name: str
    scheme: str
    round_trips: int
    read_ops: int
    write_ops: int
    atomic_ops: int
    doorbell_batches: int
    bytes_read: int
    bytes_written: int
    network_time_us: float
    compute_time_us: float
    control_requests: int
    control_time_us: float
    dram_used_bytes: int
    cache: CacheTelemetry
    metadata_version: int
    #: Wire time hidden behind compute by the pipelined wave executor.
    overlapped_time_us: float = 0.0
    #: Measured wall-clock seconds of the sub-HNSW compute phase.
    wall_compute_s: float = 0.0
    #: Verb re-issues a retrying transport performed after faults.
    retries: int = 0
    #: Simulated µs spent backing off between retry attempts.
    backoff_time_us: float = 0.0
    #: Faults injected by a ``FaultInjectingTransport`` (simulation-only).
    faults_injected: int = 0
    #: READs re-routed to another replica after retry-budget exhaustion.
    failovers: int = 0
    #: CAS verbs that lost their race (prior value != expected) —
    #: writer-contention signal for multi-writer ingest.
    cas_failures: int = 0
    #: Mutation-path ledger (all zero for a read-only instance):
    #: records ingested/tombstoned, group rebuilds this writer led vs
    #: yielded to a concurrent leader, records migrated across cutovers,
    #: reservations retried after landing on a sealed tail, oversized
    #: batches split across extra reservation rounds, and bytes this
    #: observer's grace-period reclaim returned to the allocator.
    inserts: int = 0
    deletes: int = 0
    rebuilds_led: int = 0
    rebuilds_yielded: int = 0
    records_migrated: int = 0
    sealed_retries: int = 0
    batch_chunks: int = 0
    reclaimed_bytes: int = 0
    #: Per-replica health/traffic rows (``ReplicaSelector.status()``);
    #: empty for an unreplicated pool.
    replicas: tuple = ()

    @classmethod
    def from_client(cls, client: DHnswClient) -> "ClientTelemetry":
        """Snapshot a client's current counters."""
        stats = client.node.stats
        cache = client.cache
        replicated = client._replicated_transport()
        replicas = (tuple(replicated.selector.status())
                    if replicated is not None else ())
        mstats = client.mutation.stats
        return cls(
            name=client.node.name,
            scheme=client.scheme.value,
            round_trips=stats.round_trips,
            read_ops=stats.read_ops,
            write_ops=stats.write_ops,
            atomic_ops=stats.atomic_ops,
            doorbell_batches=stats.doorbell_batches,
            bytes_read=stats.bytes_read,
            bytes_written=stats.bytes_written,
            network_time_us=stats.network_time_us,
            compute_time_us=client.node.compute_time_us,
            control_requests=(client.control.stats.requests
                              if client.control else 0),
            control_time_us=(client.control.stats.time_us
                             if client.control else 0.0),
            dram_used_bytes=client.dram_used_bytes,
            cache=CacheTelemetry(
                capacity_clusters=cache.capacity_clusters,
                resident_clusters=len(cache),
                cached_bytes=cache.cached_bytes,
                hits=cache.hits,
                misses=cache.misses,
                evictions=cache.evictions,
                invalidations=cache.invalidations,
                streamed=cache.streamed,
            ),
            metadata_version=client.metadata.version,
            overlapped_time_us=stats.overlapped_time_us,
            wall_compute_s=client.node.wall_compute_s,
            retries=stats.retries,
            backoff_time_us=stats.backoff_time_us,
            faults_injected=stats.faults_injected,
            failovers=stats.failovers,
            cas_failures=stats.cas_failures,
            inserts=mstats.inserts, deletes=mstats.deletes,
            rebuilds_led=mstats.rebuilds_led,
            rebuilds_yielded=mstats.rebuilds_yielded,
            records_migrated=mstats.records_migrated,
            sealed_retries=mstats.sealed_retries,
            batch_chunks=mstats.batch_chunks,
            reclaimed_bytes=mstats.reclaimed_bytes,
            replicas=replicas,
        )


@dataclasses.dataclass(frozen=True)
class DeploymentTelemetry:
    """Cluster-wide snapshot: all instances plus the memory pool."""

    clients: list[ClientTelemetry]
    registered_bytes: int
    region_capacity_bytes: int
    allocator_live_bytes: int
    allocator_dead_bytes: int
    fragmentation: float
    metadata_version: int
    num_clusters: int
    num_groups: int
    daemon_requests: int
    daemon_cpu_us: float
    #: Peak RSS of the simulating process (the whole deployment shares
    #: one address space), so operators see the real memory-node-plus-
    #: compute footprint next to the simulated registered bytes.
    peak_rss: int = 0
    #: Grace-period reclamation ledger: extents shadow rebuilds retired
    #: that still await every observer moving past their version.
    retired_extents: int = 0
    retired_pending_bytes: int = 0
    retired_observers: int = 0

    @classmethod
    def from_deployment(cls,
                        deployment: Deployment) -> "DeploymentTelemetry":
        """Snapshot a full deployment."""
        layout = deployment.layout
        daemon = layout.daemon
        return cls(
            clients=[ClientTelemetry.from_client(client)
                     for client in deployment.clients],
            registered_bytes=deployment.memory_node.registered_bytes,
            region_capacity_bytes=layout.region.length,
            allocator_live_bytes=layout.allocator.live_bytes,
            allocator_dead_bytes=layout.allocator.dead_bytes,
            fragmentation=layout.allocator.fragmentation(),
            metadata_version=layout.metadata.version,
            num_clusters=layout.metadata.num_clusters,
            num_groups=layout.metadata.num_groups,
            daemon_requests=daemon.requests_served if daemon else 0,
            daemon_cpu_us=daemon.cpu_time_us if daemon else 0.0,
            peak_rss=peak_rss_bytes(),
            retired_extents=len(layout.retired.entries),
            retired_pending_bytes=layout.retired.pending_bytes,
            retired_observers=layout.retired.observers,
        )

    @property
    def total_bytes_read(self) -> int:
        """Data-path bytes fetched by all instances."""
        return sum(client.bytes_read for client in self.clients)

    @property
    def total_round_trips(self) -> int:
        """Data-path round trips across all instances."""
        return sum(client.round_trips for client in self.clients)


def render_report(telemetry: DeploymentTelemetry,
                  frontdoor=None) -> str:
    """A fixed-width operator report.

    Per compute instance, the cluster-cache section says where cluster
    bytes came from: hits, fetches, and whether each fetch was admitted
    (evicting a resident) or streamed through its wave.
    ``frontdoor`` optionally takes a
    :class:`repro.frontdoor.LoadReport`; when given, the report grows a
    front-door section — waves, batch occupancy, immediate serves,
    queue-delay and in-wave percentiles side by side ("was it the
    batching budget or the wave?"), and per-tenant served / shed /
    degraded / latency accounting — next to the pool and fault
    sections, so one page shows the whole serving story.  Duck-typed, so
    ``repro.telemetry`` stays importable without the front door.
    """
    lines = [
        "=== memory pool ===",
        f"registered       : {telemetry.registered_bytes / 2**20:.2f} MiB "
        f"(region {telemetry.region_capacity_bytes / 2**20:.2f} MiB)",
        f"live / free      : {telemetry.allocator_live_bytes / 2**20:.2f}"
        f" / {telemetry.allocator_dead_bytes / 2**20:.2f} MiB "
        f"({telemetry.fragmentation:.1%} fragmented)",
        f"layout           : {telemetry.num_clusters} clusters, "
        f"{telemetry.num_groups} groups, "
        f"metadata v{telemetry.metadata_version}",
        f"control daemon   : {telemetry.daemon_requests} requests, "
        f"{telemetry.daemon_cpu_us:.1f} us CPU",
        f"retired extents  : {telemetry.retired_extents} pending "
        f"({telemetry.retired_pending_bytes / 2**20:.2f} MiB, "
        f"{telemetry.retired_observers} observers)",
        f"process peak RSS : {telemetry.peak_rss / 2**20:.2f} MiB",
        "",
        "=== compute pool ===",
        f"{'instance':<12} {'scheme':<20} {'rt':>7} {'MiB_rd':>8} "
        f"{'net_us':>10} {'hidden_us':>10} {'cpu_us':>10} {'cache_hit':>9}",
    ]
    for client in telemetry.clients:
        lines.append(
            f"{client.name:<12} {client.scheme:<20} "
            f"{client.round_trips:>7} "
            f"{client.bytes_read / 2**20:>8.2f} "
            f"{client.network_time_us:>10.1f} "
            f"{client.overlapped_time_us:>10.1f} "
            f"{client.compute_time_us:>10.1f} "
            f"{client.cache.hit_rate:>9.2%}")
    # Where each instance's cluster bytes came from: every fetch is a miss,
    # and a fetch is either admitted (evicting the weakest resident once
    # the cache is full) or streamed through its wave.
    lines += ["", "=== cluster cache ==="]
    for client in telemetry.clients:
        cache = client.cache
        lines.append(
            f"{client.name:<12} : {cache.resident_clusters}"
            f"/{cache.capacity_clusters} resident "
            f"({cache.cached_bytes / 2**20:.2f} MiB), {cache.hits} hits, "
            f"{cache.misses} fetched, {cache.evictions} evicted, "
            f"{cache.streamed} streamed, {cache.invalidations} invalidated")
    faulted = [client for client in telemetry.clients
               if client.retries or client.faults_injected
               or client.failovers]
    if faulted:
        lines += [
            "",
            "=== transport faults ===",
            f"{'instance':<12} {'faults':>7} {'retries':>8} "
            f"{'backoff_us':>11} {'failovers':>10}",
        ]
        for client in faulted:
            lines.append(
                f"{client.name:<12} {client.faults_injected:>7} "
                f"{client.retries:>8} {client.backoff_time_us:>11.1f} "
                f"{client.failovers:>10}")
    writers = [client for client in telemetry.clients
               if client.inserts or client.deletes
               or client.rebuilds_led or client.rebuilds_yielded]
    if writers:
        lines += [
            "",
            "=== mutation path ===",
            f"{'instance':<12} {'ins':>6} {'del':>6} {'cas_fail':>9} "
            f"{'sealed':>7} {'led':>4} {'yield':>6} {'migr':>6} "
            f"{'chunks':>7} {'recl_MiB':>9}",
        ]
        for client in writers:
            lines.append(
                f"{client.name:<12} {client.inserts:>6} "
                f"{client.deletes:>6} {client.cas_failures:>9} "
                f"{client.sealed_retries:>7} {client.rebuilds_led:>4} "
                f"{client.rebuilds_yielded:>6} "
                f"{client.records_migrated:>6} {client.batch_chunks:>7} "
                f"{client.reclaimed_bytes / 2**20:>9.2f}")
    replicated = [client for client in telemetry.clients if client.replicas]
    if replicated:
        lines += [
            "",
            "=== replication ===",
            f"{'instance':<12} {'replica':>8} {'health':>10} {'reads':>8} "
            f"{'failovers':>10}",
        ]
        for client in replicated:
            for row in client.replicas:
                lines.append(
                    f"{client.name:<12} {row['replica']:>8} "
                    f"{row['health']:>10} {row['reads']:>8} "
                    f"{row['failovers']:>10}")
    if frontdoor is not None:
        queue = frontdoor.queue_delay_percentiles()
        in_wave = frontdoor.in_wave_percentiles()
        latency = frontdoor.latency_percentiles()
        lines += [
            "",
            "=== front door ===",
            f"waves            : {len(frontdoor.waves)} "
            f"(occupancy mean {frontdoor.mean_occupancy:.1f}, "
            f"max {frontdoor.max_occupancy}); "
            f"{len(frontdoor.immediate)} requests served at once",
            f"requests         : {frontdoor.offered} offered, "
            f"{frontdoor.served} served ({frontdoor.degraded} degraded), "
            f"{frontdoor.shed_admission} shed@admission, "
            f"{frontdoor.shed_deadline} shed@deadline",
            f"queue delay      : p50 {queue['p50']:.1f} / "
            f"p99 {queue['p99']:.1f} / p999 {queue['p999']:.1f} us",
            f"in wave          : p50 {in_wave['p50']:.1f} / "
            f"p99 {in_wave['p99']:.1f} / p999 {in_wave['p999']:.1f} us "
            f"(dispatch -> own completion)",
            f"e2e latency      : p50 {latency['p50']:.1f} / "
            f"p99 {latency['p99']:.1f} / p999 {latency['p999']:.1f} us "
            f"({frontdoor.throughput_qps:.0f} qps)",
            f"{'tenant':<12} {'offered':>8} {'served':>7} {'shed':>6} "
            f"{'degraded':>9} {'q_p50us':>9} {'q_p99us':>9} "
            f"{'l_p50us':>9} {'l_p99us':>9} {'share':>7}",
        ]
        for tenant in frontdoor.tenants():
            shed = tenant.shed_admission + tenant.shed_deadline
            lines.append(
                f"{tenant.tenant:<12} {tenant.offered:>8} "
                f"{tenant.served:>7} {shed:>6} {tenant.degraded:>9} "
                f"{tenant.p50_queue_delay_us:>9.1f} "
                f"{tenant.p99_queue_delay_us:>9.1f} "
                f"{tenant.p50_latency_us:>9.1f} "
                f"{tenant.p99_latency_us:>9.1f} "
                f"{tenant.dispatch_share:>7.2%}")
    return "\n".join(lines)


def render_trace(trace: TraceContext) -> str:
    """A fixed-width per-stage table for one request's trace."""
    lines = [
        f"=== request #{trace.request_id} ===",
        f"{'stage':<10} {'calls':>6} {'sim_us':>10} {'wall_ms':>9} "
        f"{'MiB_rd':>8}",
    ]
    for stage in trace.report():
        lines.append(
            f"{stage.name:<10} {stage.calls:>6} {stage.sim_us:>10.1f} "
            f"{stage.wall_s * 1e3:>9.2f} "
            f"{stage.bytes_read / 2**20:>8.3f}")
    lines.append(
        f"{'total':<10} {'':>6} {trace.total_sim_us:>10.1f} "
        f"{trace.total_wall_s * 1e3:>9.2f} "
        f"{trace.total_bytes_read / 2**20:>8.3f}")
    if trace.events:
        events = "  ".join(
            f"{name}={value:g}" for name, value in trace.events.items())
        lines.append(f"fault path: {events}")
    return "\n".join(lines)
