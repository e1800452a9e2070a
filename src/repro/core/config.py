"""Configuration of a d-HNSW deployment.

Defaults mirror the paper's evaluation setup (§4) scaled to laptop-sized
corpora: the compute-side cache holds 10 % of all sub-HNSW clusters, each
query probes at most ``nprobe`` close partitions, and queries arrive in large
batches that the query-aware loader deduplicates.
"""

from __future__ import annotations

import dataclasses
import math
import numbers

from repro.errors import ConfigError
from repro.hnsw.params import HnswParams

__all__ = ["DHnswConfig", "FrontDoorConfig", "META_PARAMS", "SUB_PARAMS"]

#: The meta-HNSW's parameters: three layers (L0, L1, L2) per §3.1.
META_PARAMS = HnswParams(m=8, ef_construction=64, max_level=2)
#: Every sub-HNSW's parameters; cluster ``i`` inserts with seed
#: ``SUB_PARAMS.seed + i`` so the layout is byte-identical at any
#: ``build_workers`` count.
SUB_PARAMS = HnswParams(m=16, ef_construction=100)


def _require_finite(config) -> None:
    """Refuse a NaN or an infinity in any numeric field: the range checks
    are comparisons, which a NaN passes."""
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and not math.isfinite(value)):
            raise ConfigError(f"{field.name} must be finite, got {value}")


def _require_integers(config) -> None:
    """Refuse anything but an integer (NumPy's count; a bool does not) in
    an ``int`` field: a float passes the range checks, then fails or
    rounds far from here."""
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if (field.type in ("int", "int | None") and value is not None
                and (isinstance(value, bool)
                     or not isinstance(value, numbers.Integral))):
            raise ConfigError(
                f"{field.name} must be an integer, got {value!r}")


@dataclasses.dataclass(frozen=True)
class DHnswConfig:
    """All knobs of a d-HNSW build and its query-time behaviour.

    Attributes
    ----------
    num_representatives:
        Vectors uniformly sampled to build the meta-HNSW (the paper picks
        500 for a 1M corpus).  ``None`` derives ``clamp(n // 300, 4, 500)``
        from the corpus size, preserving the paper's cluster-count-to-data
        ratio at smaller scale.  Each representative defines one partition.
    nprobe:
        Most sub-HNSW clusters searched per query (the paper's ``b``,
        which it always probes).  Routing keeps only the candidates near
        the closest representative
        (:data:`repro.core.meta_index.ROUTE_ALPHA`).
    ef_meta:
        Beam width for meta-HNSW routing.
    cache_fraction:
        Compute-instance cluster-cache capacity as a fraction of the total
        cluster count (§4 fixes 10 %).
    overflow_capacity_records:
        Slots in each group's shared overflow area.  The paper sizes the
        area at 0.75 MB for SIFT1M; slots are the scale-free equivalent.
        Capacity costs region bytes and sets how often a group rebuilds;
        it does not tax reads — a fetch moves the live slots plus a small
        slack, not the area (``layout.group_layout.cluster_read_ranges``).
    pipeline_waves:
        Extension, on by default: the look-ahead of the ready-list
        loader, which keeps up to two waves' READs in flight
        (non-blocking ``read_batch_async`` + ``poll`` in the
        RDMA sim) while the CPU routes the rest of the batch and searches
        whatever is already in DRAM — hits, then each wave as it lands —
        and releases each row once its own clusters are searched.
        Hidden wire time is charged honestly — ``breakdown.network_us``
        holds only the exposed wait and ``BatchResult.overlap_saved_us``
        reports the measured overlap.  ``False`` (the paper's serial
        loader: Tables 1-2, Fig. 6) runs the same loop with one wave
        open, landing every READ before it searches anything, so nothing
        overlaps; the naive scheme always runs that way.
    region_headroom:
        Registered-region capacity as a multiple of the initial layout
        size; the slack absorbs groups relocated by overflow rebuilds.
    build_workers:
        Worker processes for sub-HNSW construction and overflow
        rebuilds.  ``0`` (default) builds in-process; ``>= 1`` fans
        clusters over a process pool.  Deterministic either way: each
        cluster's insertion seed is ``SUB_PARAMS.seed + cluster_id``,
        so the resulting layout is byte-identical at every worker
        count.
    replication_factor:
        Copies of the remote layout kept on distinct memory nodes.
        ``1`` (default) is the paper's single passive memory node.
        ``k >= 2`` fans every build/load and mutation WRITE out to ``k``
        byte-identical nodes; READs pick a replica by health and queue
        depth (``repro.transport.replica.ReplicaSelector``, seeded from
        ``seed`` so traces replay) and fail over to a healthy peer when
        one replica exhausts its retry budget mid-request.
    hot_tier_budget_bytes:
        Byte cap of the cluster cache: the bytes its residents may hold
        together, enforced alongside the cluster count ``cache_fraction``
        sets.  A fetched cluster the cache will not keep is searched in
        its wave and dropped (streamed), and each wave fetches at most
        its share of the cap (the cap over the waves the loop keeps
        open), so cluster DRAM peaks at twice the cap.  ``None``
        (default) caps the count only.
    search_workers:
        Retired, not a field: every cluster search runs in the serving
        process (search is charged per distance evaluation, so worker
        processes could buy only wall time, and did not).  Still a
        constructor keyword at its one value ``1``; any other raises
        :class:`ConfigError`.
    """

    num_representatives: int | None = None
    nprobe: int = 4
    ef_meta: int = 32
    cache_fraction: float = 0.10
    overflow_capacity_records: int = 128
    pipeline_waves: bool = True
    region_headroom: float = 3.0
    build_workers: int = 0
    replication_factor: int = 1
    hot_tier_budget_bytes: int | None = None
    seed: int = 0
    search_workers: dataclasses.InitVar[int] = 1

    def __post_init__(self, search_workers: int) -> None:
        if search_workers != 1:
            raise ConfigError(
                f"search_workers must be 1, got {search_workers!r}: the "
                f"search worker pool is retired, every cluster search "
                f"runs in the serving process")
        _require_integers(self)
        _require_finite(self)
        if self.num_representatives is not None and self.num_representatives < 1:
            raise ConfigError(
                f"num_representatives must be >= 1, got "
                f"{self.num_representatives}")
        if self.nprobe < 1:
            raise ConfigError(f"nprobe must be >= 1, got {self.nprobe}")
        if self.ef_meta < 1:
            raise ConfigError(f"ef_meta must be >= 1, got {self.ef_meta}")
        if not 0.0 < self.cache_fraction <= 1.0:
            raise ConfigError(
                f"cache_fraction must be in (0, 1], got {self.cache_fraction}")
        if self.overflow_capacity_records < 0:
            raise ConfigError(
                f"overflow_capacity_records must be >= 0, got "
                f"{self.overflow_capacity_records}")
        if self.region_headroom < 1.0:
            raise ConfigError(
                f"region_headroom must be >= 1.0, got {self.region_headroom}")
        if self.build_workers < 0:
            raise ConfigError(
                f"build_workers must be >= 0, got {self.build_workers}")
        if self.replication_factor < 1:
            raise ConfigError(
                f"replication_factor must be >= 1, got "
                f"{self.replication_factor}")
        if (self.hot_tier_budget_bytes is not None
                and self.hot_tier_budget_bytes < 0):
            raise ConfigError(
                f"hot_tier_budget_bytes must be >= 0 (or None for "
                f"unbounded), got {self.hot_tier_budget_bytes}")

    # ------------------------------------------------------------------
    def derived_num_representatives(self, corpus_size: int) -> int:
        """Resolve ``num_representatives`` for a corpus of ``corpus_size``."""
        if corpus_size < 1:
            raise ConfigError(
                f"corpus_size must be >= 1, got {corpus_size}")
        if self.num_representatives is not None:
            return min(self.num_representatives, corpus_size)
        derived = corpus_size // 300
        return max(4, min(derived, 500, corpus_size))

    def cache_capacity_clusters(self, num_clusters: int) -> int:
        """Cluster-cache capacity for a deployment of ``num_clusters``."""
        if num_clusters < 1:
            raise ConfigError(
                f"num_clusters must be >= 1, got {num_clusters}")
        return max(1, int(round(self.cache_fraction * num_clusters)))

    def replace(self, **changes: object) -> "DHnswConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)


@dataclasses.dataclass(frozen=True)
class FrontDoorConfig:
    """Knobs of the multi-tenant request layer (:mod:`repro.frontdoor`).

    The front door coalesces independently arriving single-query requests
    into waves before they reach the serving engine, so one doorbell-
    batched fetch (and the planner's cross-query cluster dedup) serves
    many tenants.  Every decision it makes is a pure function of the
    arrival sequence, so schedules replay deterministically.

    Attributes
    ----------
    max_wait_us:
        Latency budget of wave forming: a wave dispatches as soon as
        its oldest pending request has waited this long (or earlier, when
        ``max_batch`` fills).  ``0`` dispatches every request immediately
        — per-query serving, the baseline the benchmark compares against.
    max_batch:
        Wave size ceiling.  Reaching it dispatches immediately.
    slo_us:
        Default end-to-end deadline budget, as ``FrontDoor.tenant_slo_us``
        hands it to a caller building requests.  Each request carries its
        own ``slo_us`` (``make_requests`` stamps it), and that is what
        the door sheds by at dispatch time (``shed_late``).
    shed_late:
        When True (default), requests whose deadline has already passed
        when their wave forms are shed (counted, never answered) instead
        of wasting engine work that cannot meet the SLO.
    degraded_ef:
        Overload escape valve: when the post-wave backlog exceeds two
        full waves (``door.DEGRADE_BACKLOG_WAVES``), dispatch with
        this (lower) ``ef_search`` instead of the requested beam —
        trading recall for drain rate, with the downgrade recorded
        honestly on every affected request.  ``None`` (default) never
        degrades.  Calibrate it against a relaxed recall target with
        :func:`repro.core.tuning.tune_ef_search` (say recall 0.85 where
        the normal operating point asks 0.95) rather than guessing.
    """

    max_wait_us: float = 2000.0
    max_batch: int = 64
    slo_us: float = 50_000.0
    shed_late: bool = True
    degraded_ef: int | None = None

    def __post_init__(self) -> None:
        _require_integers(self)
        _require_finite(self)
        if self.max_wait_us < 0.0:
            raise ConfigError(
                f"max_wait_us must be >= 0, got {self.max_wait_us}")
        if self.max_batch < 1:
            raise ConfigError(
                f"max_batch must be >= 1, got {self.max_batch}")
        if self.slo_us <= 0.0:
            raise ConfigError(f"slo_us must be > 0, got {self.slo_us}")
        if self.degraded_ef is not None and self.degraded_ef < 1:
            raise ConfigError(
                f"degraded_ef must be >= 1 (or None to disable), got "
                f"{self.degraded_ef}")

    def replace(self, **changes: object) -> "FrontDoorConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)
