"""The front door: one event loop coalescing requests into engine waves.

:class:`FrontDoor` sits between independently arriving single-query
requests and a :class:`~repro.core.client.DHnswClient`.  It runs on the
client's :class:`~repro.rdma.clock.SimClock` — the same timeline every
RDMA verb and compute charge advances — so queue delay, batching delay,
and service time compose into one honest end-to-end latency per request.

The loop alternates between exactly two event kinds: the next arrival,
and the instant the pending wave becomes due (``max_batch`` requests
pending, or the oldest has waited ``max_wait_us``).  An arrival is
charged to its tenant's token bucket (a :class:`TokenBucket` per tenant
whose policy sets a rate) and queued on the weighted deficit-round-robin
queues; a due wave takes a DRR-fair share of them, orders it earliest
deadline first, sheds what is already late (``shed_late``), degrades the
beam under a deep backlog, and calls ``search_batch`` once per
``(k, ef)`` group, which advances the clock by the wave's service time.
Arrivals that land "during" service simply queue with their original
timestamps, so backlog and queue delay emerge from the simulation rather
than being modelled.  A request completes when *its* answer is final —
``BatchResult.complete_us``: the engine serves rows in the EDF order the
door hands them over and stamps each once its own last cluster is
searched (a hit's once its tail word has landed) — not when its wave
ends, so the request that waited longest for the wave to form leaves it
first.

Determinism contract: admission is charged at *arrival* timestamps (not
dispatch), DRR order is a function of the arrival sequence, and the
engine is deterministic — so the same requests + the same seed replay the
identical schedule, wave for wave.  Answers are bit-identical to calling
``search_batch`` directly on the same queries (wave composition only
changes *when* clusters are fetched, never what a query answers), which
``benchmarks/perf/bench_frontdoor.py`` gates.  Beam widths come from the
engine's own ``resolve_ef`` (explicit, else the paper's ``2k``), so the
door and a direct call agree on them; the width is each row's lead
probe's beam, and the engine narrows its later probes below it
(:func:`repro.serving.executor.probe_ef`).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Mapping, Sequence

import numpy as np

from repro.core.config import FrontDoorConfig
from repro.frontdoor.admission import (DeficitRoundRobin, TenantPolicy,
                                       TokenBucket)
from repro.frontdoor.request import Request, RequestOutcome, RequestStatus

__all__ = ["DEGRADE_BACKLOG_WAVES", "FrontDoor", "LoadReport",
           "TenantReport", "WaveRecord"]

#: Backlog, in full waves (units of ``max_batch``), beyond which a wave
#: dispatches with ``FrontDoorConfig.degraded_ef``.
DEGRADE_BACKLOG_WAVES = 2.0


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of pre-sorted values (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return float(sorted_values[min(rank, len(sorted_values)) - 1])


def _percentiles(values) -> dict[str, float]:
    """p50/p99/p999 of ``values`` (any order)."""
    ordered = sorted(values)
    return {"p50": _percentile(ordered, 0.50),
            "p99": _percentile(ordered, 0.99),
            "p999": _percentile(ordered, 0.999)}


@dataclasses.dataclass(frozen=True)
class WaveRecord:
    """One wave as it actually executed — the unit of schedule replay."""

    wave_id: int
    formed_us: float
    request_ids: tuple[int, ...]
    #: One entry per engine call: (k, ef, request count), in EDF order.
    groups: tuple[tuple[int, int, int], ...]
    shed_ids: tuple[int, ...]
    degraded: bool
    #: Simulated time the engine spent on the wave (all groups).
    service_us: float
    clusters_fetched: int

    @property
    def occupancy(self) -> int:
        return len(self.request_ids) + len(self.shed_ids)


@dataclasses.dataclass(frozen=True)
class TenantReport:
    """One tenant's slice of a load report."""

    tenant: str
    offered: int
    served: int
    shed_admission: int
    shed_deadline: int
    degraded: int
    p50_queue_delay_us: float
    p99_queue_delay_us: float
    #: End-to-end (arrival → own completion) over the tenant's answered
    #: requests.
    p50_latency_us: float
    p99_latency_us: float
    #: Fraction of all dispatched wave slots this tenant received.
    dispatch_share: float


@dataclasses.dataclass(frozen=True)
class LoadReport:
    """Everything one load-generation run produced, ready to assert on."""

    outcomes: tuple[RequestOutcome, ...]
    waves: tuple[WaveRecord, ...]
    #: [first arrival, last completion] span on the simulated clock.
    start_us: float
    end_us: float

    # -- counts ---------------------------------------------------------
    @property
    def offered(self) -> int:
        return len(self.outcomes)

    def _count(self, status: RequestStatus) -> int:
        return sum(1 for o in self.outcomes if o.status is status)

    @property
    def served(self) -> int:
        return sum(1 for o in self.outcomes if o.status.answered)

    @property
    def degraded(self) -> int:
        return self._count(RequestStatus.DEGRADED)

    @property
    def shed_admission(self) -> int:
        return self._count(RequestStatus.SHED_ADMISSION)

    @property
    def shed_deadline(self) -> int:
        return self._count(RequestStatus.SHED_DEADLINE)

    @property
    def duration_us(self) -> float:
        return max(self.end_us - self.start_us, 0.0)

    @property
    def throughput_qps(self) -> float:
        """Answered queries per simulated second over the run's span."""
        if self.duration_us <= 0.0:
            return float("inf") if self.served else 0.0
        return self.served / (self.duration_us / 1e6)

    # -- latency --------------------------------------------------------
    def queue_delay_percentiles(self) -> dict[str, float]:
        """p50/p99/p999 of queue delay across answered requests."""
        return _percentiles(o.queue_delay_us for o in self.outcomes
                            if o.status.answered)

    def in_wave_percentiles(self) -> dict[str, float]:
        """p50/p99/p999 of dispatch → completion across answered requests:
        with :meth:`queue_delay_percentiles`, whether latency went to the
        batching budget or to the wave."""
        return _percentiles(o.in_wave_us for o in self.outcomes
                            if o.status.answered)

    def latency_percentiles(self) -> dict[str, float]:
        """p50/p99/p999 of end-to-end latency across answered requests."""
        return _percentiles(o.latency_us for o in self.outcomes
                            if o.status.answered)

    def latency_histogram(self, bin_us: float = 500.0,
                          num_bins: int = 64) -> tuple[int, ...]:
        """Fixed-bucket end-to-end latency histogram (last bin overflows).

        Histograms, not just percentiles, are what the determinism gate
        compares: two runs with equal p99s can still differ — equal
        histograms (plus equal schedules) cannot, short of reordering
        within a bucket.
        """
        counts = [0] * num_bins
        for outcome in self.outcomes:
            if not outcome.status.answered:
                continue
            index = min(int(outcome.latency_us / bin_us), num_bins - 1)
            counts[index] += 1
        return tuple(counts)

    # -- batching -------------------------------------------------------
    @property
    def mean_occupancy(self) -> float:
        """Mean requests per wave (how full the batch former ran)."""
        if not self.waves:
            return 0.0
        return sum(w.occupancy for w in self.waves) / len(self.waves)

    @property
    def max_occupancy(self) -> int:
        return max((w.occupancy for w in self.waves), default=0)

    # -- per-tenant -----------------------------------------------------
    def tenants(self) -> list[TenantReport]:
        """Per-tenant accounting, tenants in first-offered order."""
        order: list[str] = []
        grouped: dict[str, list[RequestOutcome]] = {}
        for outcome in self.outcomes:
            tenant = outcome.request.tenant
            if tenant not in grouped:
                grouped[tenant] = []
                order.append(tenant)
            grouped[tenant].append(outcome)
        total_dispatched = sum(1 for o in self.outcomes
                               if o.status.answered)
        reports = []
        for tenant in order:
            outcomes = grouped[tenant]
            delays = sorted(o.queue_delay_us for o in outcomes
                            if o.status.answered)
            latencies = sorted(o.latency_us for o in outcomes
                               if o.status.answered)
            served = len(delays)
            reports.append(TenantReport(
                tenant=tenant,
                offered=len(outcomes),
                served=served,
                shed_admission=sum(
                    1 for o in outcomes
                    if o.status is RequestStatus.SHED_ADMISSION),
                shed_deadline=sum(
                    1 for o in outcomes
                    if o.status is RequestStatus.SHED_DEADLINE),
                degraded=sum(1 for o in outcomes
                             if o.status is RequestStatus.DEGRADED),
                p50_queue_delay_us=_percentile(delays, 0.50),
                p99_queue_delay_us=_percentile(delays, 0.99),
                p50_latency_us=_percentile(latencies, 0.50),
                p99_latency_us=_percentile(latencies, 0.99),
                dispatch_share=(served / total_dispatched
                                if total_dispatched else 0.0),
            ))
        return reports

    # -- replay ---------------------------------------------------------
    def schedule_signature(self) -> tuple:
        """A hashable transcript of every scheduling decision.

        Two runs over the same arrival sequence and seed must produce
        equal signatures — the determinism contract the benchmark and
        the hypothesis suite assert.  Timestamps are rounded to the
        nanosecond to absorb float printing, not float arithmetic (the
        same operations run in the same order, so even exact equality
        holds; rounding just keeps the signature stable if a NumPy
        version changes summation order inside the engine).
        """
        return tuple(
            (w.wave_id, round(w.formed_us, 3), w.request_ids, w.groups,
             w.shed_ids, w.degraded)
            for w in self.waves)


class FrontDoor:
    """Multi-tenant request layer in front of one ``DHnswClient``."""

    def __init__(self, client,
                 config: FrontDoorConfig | None = None,
                 tenants: Mapping[str, TenantPolicy] | None = None) -> None:
        self.client = client
        self.config = config if config is not None else FrontDoorConfig()
        self.tenants = dict(tenants) if tenants is not None else {}
        self.clock = client.node.clock
        self.queues = DeficitRoundRobin(self.tenants)
        self.buckets = {tenant: TokenBucket(policy.rate_qps)
                        for tenant, policy in self.tenants.items()
                        if policy.rate_qps is not None}
        self._wave_counter = 0

    def tenant_slo_us(self, tenant: str) -> float:
        """Deadline budget for stamping onto the requests a caller builds
        for ``tenant``: the door's default, ``FrontDoorConfig.slo_us``.
        The door itself sheds by each request's own ``slo_us``."""
        return self.config.slo_us

    def run(self, requests: Sequence[Request]) -> LoadReport:
        """Serve a pre-generated (open-loop) arrival sequence to completion.

        ``requests`` must be sorted by ``arrival_us`` (load generators
        produce them that way); ties are served in sequence order.  The
        loop admits what has arrived, dispatches a due wave, else
        advances the clock to the next arrival or due time — until both
        run dry.  Arrivals are fixed in advance: queue delay under load
        comes out of the simulation, not out of the generator.
        """
        for earlier, later in zip(requests, requests[1:]):
            if later.arrival_us < earlier.arrival_us:
                raise ValueError(
                    "open-loop requests must be sorted by arrival_us")
        outcomes: dict[int, RequestOutcome] = {}
        waves: list[WaveRecord] = []
        arrived = 0
        while True:
            now = self.clock.now_us
            while (arrived < len(requests)
                   and requests[arrived].arrival_us <= now):
                request = requests[arrived]
                arrived += 1
                bucket = self.buckets.get(request.tenant)
                if bucket is None or bucket.admit(request.arrival_us):
                    self.queues.push(request)
                else:   # shed at the door: completes on the spot
                    outcomes[request.request_id] = RequestOutcome(
                        request=request, status=RequestStatus.SHED_ADMISSION,
                        dispatch_us=float("nan"),
                        complete_us=request.arrival_us, wave_id=-1,
                        ef_used=0)
            due = self._due_us()
            if due is not None and due <= now:
                self._dispatch(self._form_wave(), now, waves, outcomes)
                continue
            upcoming = (requests[arrived].arrival_us
                        if arrived < len(requests) else None)
            targets = [t for t in (upcoming, due) if t is not None]
            if not targets:
                break
            self.clock.advance_to(min(targets))
        ordered = tuple(outcomes[r.request_id] for r in requests)
        start = min((r.arrival_us for r in requests), default=0.0)
        end = max((o.complete_us for o in ordered), default=start)
        return LoadReport(outcomes=ordered, waves=tuple(waves),
                          start_us=start, end_us=end)

    # -- the wave trigger --------------------------------------------------
    def _due_us(self) -> float | None:
        """When the pending wave must form: at once (``-inf``) when
        ``max_batch`` requests wait, else once the oldest has waited
        ``max_wait_us``; ``None`` when nothing waits.

        The loop advances the clock to exactly this sum and tests
        ``due <= now`` against it — never ``now - oldest >= max_wait_us``,
        which can round below the budget at the boundary and spin.
        """
        if not self.queues.pending:
            return None
        if self.queues.pending >= self.config.max_batch:
            return -math.inf
        return self.queues.oldest_arrival_us() + self.config.max_wait_us

    # -- wave formation ----------------------------------------------------
    def _form_wave(self) -> list[Request]:
        """DRR-fair selection, then EDF order.

        Fairness decides *which* requests board the wave; the deadline
        sort (``request_id`` breaking ties, so the order is total and
        replayable) decides the order they are considered for shedding
        and handed to the engine.
        """
        taken = self.queues.take(self.config.max_batch)
        taken.sort(key=lambda r: (r.deadline_us, r.request_id))
        return taken

    # -- the dispatch rule -------------------------------------------------
    def _dispatch(self, wave: list[Request], now: float,
                  waves: list[WaveRecord],
                  outcomes: dict[int, RequestOutcome]) -> None:
        """Shed, degrade, group and serve one formed wave.

        Requests already past their deadline are shed (``shed_late``):
        answering them cannot meet the SLO.  When more than
        ``DEGRADE_BACKLOG_WAVES`` full waves are still queued behind this
        one, the wave runs with ``degraded_ef`` — never below ``k``, never
        above the request's own beam — as its rows' lead-probe beam (the
        later probes narrow below it), and every member is marked
        ``DEGRADED``.  Survivors group by ``(k, ef)`` in EDF order: one
        engine call per group, the earliest deadline's first.
        """
        config = self.config
        wave_id = self._wave_counter
        self._wave_counter += 1
        shed: list[Request] = []
        live: list[Request] = []
        for request in wave:
            late = config.shed_late and now > request.deadline_us
            (shed if late else live).append(request)
        degraded = (bool(live) and config.degraded_ef is not None
                    and self.queues.pending
                    > DEGRADE_BACKLOG_WAVES * config.max_batch)
        groups: dict[tuple[int, int], list[Request]] = {}
        for request in live:
            ef = self.client.engine.resolve_ef(request.k, request.ef_search)
            if degraded:
                ef = min(ef, max(config.degraded_ef, request.k))
            groups.setdefault((request.k, ef), []).append(request)

        for request in shed:
            outcomes[request.request_id] = RequestOutcome(
                request=request, status=RequestStatus.SHED_DEADLINE,
                dispatch_us=now, complete_us=now, wave_id=wave_id,
                ef_used=0)
        status = RequestStatus.DEGRADED if degraded else RequestStatus.OK
        fetched = 0
        for (k, ef), members in groups.items():
            batch = self.client.search_batch(
                np.stack([r.query for r in members]), k, ef_search=ef)
            # Rows went in EDF order and the engine serves them in the
            # order given, stamping each when its answer is final.
            fetched += batch.clusters_fetched
            for request, result, complete in zip(
                    members, batch.results, batch.complete_us.tolist()):
                outcomes[request.request_id] = RequestOutcome(
                    request=request, status=status, dispatch_us=now,
                    complete_us=complete, wave_id=wave_id, ef_used=ef,
                    ids=result.ids, distances=result.distances)
        waves.append(WaveRecord(
            wave_id=wave_id, formed_us=now,
            request_ids=tuple(r.request_id for members in groups.values()
                              for r in members),
            groups=tuple((k, ef, len(members))
                         for (k, ef), members in groups.items()),
            shed_ids=tuple(r.request_id for r in shed),
            degraded=degraded, service_us=self.clock.now_us - now,
            clusters_fetched=fetched))
