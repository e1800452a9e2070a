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
whose policy sets a rate), then routed: the door charges its meta-HNSW
walk to the clock at admission (behind any wave in service), through the
engine's own ``planner.route``, and keeps the routes for its dispatch.
The walk itself is computed ahead, ``WALK_ROWS`` arrivals per
``route_batch`` call, since a row's routes do not depend on the rows
walked with it.  A routed request is queued on the weighted
deficit-round-robin queues; a due wave takes a DRR-fair share of them,
orders it earliest deadline first, sheds what is already late
(``shed_late``), degrades the beam under a deep backlog, and calls
``search_batch`` once per ``(k, ef)`` group with its members' routes
(:meth:`~repro.serving.engine.ServingEngine.routed`), which advances the
clock by the wave's service time and puts the wave's first READ on the
wire at once.  Arrivals that land "during" service simply queue with
their original timestamps, so backlog and queue delay emerge from the
simulation rather than being modelled.

A request whose routed clusters are all cache-resident gains nothing from
waiting — the wave's shared fetch is all it would wait for — so it is not
queued: it is served at once in a batch of its own (an *immediate
serve*, not a wave).  If a wave is due at that instant, the wave goes
first and the request's residency is checked again after it (a request
that lost a cluster to the wave's evictions is queued after all).  A
request already past its deadline under ``shed_late`` is queued, so the
wave's shedding rule decides it as before.

A request completes when *its* answer is final —
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
from repro.metrics.latency import LatencyBreakdown
from repro.serving.planner import Walk

__all__ = ["DEGRADE_BACKLOG_WAVES", "FrontDoor", "ImmediateServe",
           "LoadReport", "TenantReport", "WaveRecord"]

#: Backlog, in full waves (units of ``max_batch``), beyond which a wave
#: dispatches with ``FrontDoorConfig.degraded_ef``.
DEGRADE_BACKLOG_WAVES = 2.0

#: Arrivals walked through the meta-HNSW per ``route_batch`` call: a row
#: walked alone costs about a third more wall time than in a batch of 16
#: or more.  Its simulated cost is charged request by request at
#: admission either way.
WALK_ROWS = 64


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
class ImmediateServe:
    """One request served at once, outside any wave: every cluster it
    probes was cache-resident when it was admitted (or, when a wave went
    first, right after that wave)."""

    request_id: int
    served_us: float
    #: Simulated time the engine spent on the request.
    service_us: float


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
    #: Timer- and size-formed waves only; immediate serves are apart.
    waves: tuple[WaveRecord, ...]
    #: [first arrival, last completion] span on the simulated clock.
    start_us: float
    end_us: float
    immediate: tuple[ImmediateServe, ...] = ()

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
    def immediate_share(self) -> float:
        """Fraction of answered requests served at once, in no wave."""
        return len(self.immediate) / self.served if self.served else 0.0

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
        version changes summation order inside the engine).  Waves come
        first, then the immediate serves.
        """
        return (tuple(
            (w.wave_id, round(w.formed_us, 3), w.request_ids, w.groups,
             w.shed_ids, w.degraded)
            for w in self.waves), tuple(
            (s.request_id, round(s.served_us, 3)) for s in self.immediate))


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
        #: Per position in the running arrival list: its walk (routes,
        #: evaluations), computed ahead of admission.
        self._walks: list[tuple[list[int], int]] = []
        #: Per admitted, unserved request: its routes and the routing
        #: time charged for it.
        self._routes: dict[int, tuple[list[int], float]] = {}

    def tenant_slo_us(self, tenant: str) -> float:
        """Deadline budget for stamping onto the requests a caller builds
        for ``tenant``: the door's default, ``FrontDoorConfig.slo_us``.
        The door itself sheds by each request's own ``slo_us``."""
        return self.config.slo_us

    def run(self, requests: Sequence[Request]) -> LoadReport:
        """Serve a pre-generated (open-loop) arrival sequence to completion.

        ``requests`` must be sorted by ``arrival_us`` (load generators
        produce them that way); ties are served in sequence order.  Each
        turn of the loop admits and routes the requests that have landed,
        serves the all-resident ones at once (a due wave first),
        dispatches a due wave, else advances the clock to the next arrival
        or due time — until all run dry.  A pass of admissions ends early
        when the wave timer runs out, and routes for ``max_wait_us`` at
        most: each routing charge moves the clock, and arrivals faster
        than routing must not hold a due wave back.
        Arrivals are fixed in advance: queue delay under load comes out of
        the simulation, not out of the generator.
        """
        for earlier, later in zip(requests, requests[1:]):
            if later.arrival_us < earlier.arrival_us:
                raise ValueError(
                    "open-loop requests must be sorted by arrival_us")
        outcomes: dict[int, RequestOutcome] = {}
        waves: list[WaveRecord] = []
        immediate: list[ImmediateServe] = []
        self._walks = []
        arrived = 0
        while True:
            # One admission pass over the requests that had landed when it
            # began, so DRR and EDF see the backlog a wave leaves behind.
            # It stops once the wave timer runs out while it routes, and
            # after routing for the batching budget at most.
            now = self.clock.now_us
            limit = now + self.config.max_wait_us
            held: list[Request] = []
            while (arrived < len(requests)
                   and requests[arrived].arrival_us <= now):
                arrived += 1
                request = self._admit(requests, arrived - 1, outcomes)
                if request is not None:
                    held.append(request)
                timer = self._timer_us()
                if self.clock.now_us >= limit or (
                        timer is not None
                        and now < timer <= self.clock.now_us):
                    break
            if held:
                # A due wave goes first.  The held requests wait out that
                # one wave, no more: each is served at once if still all
                # resident, else queued.
                self._dispatch_due(waves, outcomes)
                for request in held:
                    self._serve_or_queue(request, immediate, outcomes)
            if self._dispatch_due(waves, outcomes):
                continue
            upcoming = (requests[arrived].arrival_us
                        if arrived < len(requests) else None)
            if upcoming is not None and upcoming <= self.clock.now_us:
                continue
            targets = [t for t in (upcoming, self._due_us()) if t is not None]
            if not targets:
                break
            self.clock.advance_to(min(targets))
        ordered = tuple(outcomes[r.request_id] for r in requests)
        start = min((r.arrival_us for r in requests), default=0.0)
        end = max((o.complete_us for o in ordered), default=start)
        return LoadReport(outcomes=ordered, waves=tuple(waves),
                          start_us=start, end_us=end,
                          immediate=tuple(immediate))

    # -- routing at admission ----------------------------------------------
    def _admit(self, requests: Sequence[Request], position: int,
               outcomes: dict[int, RequestOutcome]) -> Request | None:
        """Admit and route ``requests[position]``: shed at its tenant's
        bucket, else queued — or returned, held for an immediate serve,
        when every cluster it probes is resident (:meth:`_immediate`)."""
        request = requests[position]
        bucket = self.buckets.get(request.tenant)
        if bucket is not None and not bucket.admit(request.arrival_us):
            # Shed at the door: completes on the spot.
            outcomes[request.request_id] = RequestOutcome(
                request=request, status=RequestStatus.SHED_ADMISSION,
                dispatch_us=float("nan"), complete_us=request.arrival_us,
                wave_id=-1, ef_used=0)
            return None
        self._route(requests, position)
        if self._immediate(request):
            return request
        self.queues.push(request)
        return None

    def _route(self, requests: Sequence[Request], position: int) -> None:
        """Charge ``requests[position]``'s meta-HNSW walk to the clock
        now, through the engine's ``planner.route``, and keep its routes
        and the time charged for its dispatch.  Walks are computed
        ``WALK_ROWS`` arrivals at a time, ahead of their admission."""
        planner = self.client.engine.planner
        walks = self._walks
        if position >= len(walks):
            ahead = requests[len(walks):position + WALK_ROWS]
            walk = planner.walk(np.stack([r.query for r in ahead]))
            walks.extend(zip(walk.clusters, walk.evaluations))
        request = requests[position]
        clusters, evaluations = walks[position]
        charged = LatencyBreakdown()
        planner.route(request.query[None, :], charged,
                      walk=Walk([clusters], [evaluations]))
        self._routes[request.request_id] = (clusters,
                                            charged.meta_hnsw_us)

    def _immediate(self, request: Request) -> bool:
        """Whether ``request`` may skip the queue: every cluster it probes
        is cache-resident, and (under ``shed_late``) it is not late."""
        if self.config.shed_late and self.clock.now_us > request.deadline_us:
            return False
        cache = self.client.cache
        return all(cache.peek(cid) is not None
                   for cid in self._routes[request.request_id][0])

    def _serve_or_queue(self, request: Request,
                        immediate: list[ImmediateServe],
                        outcomes: dict[int, RequestOutcome]) -> None:
        """Serve a held request at once in a batch of its own, unless it
        stopped qualifying (:meth:`_immediate`): then queue it."""
        if not self._immediate(request):
            self.queues.push(request)
            return
        now = self.clock.now_us
        ef = self.client.engine.resolve_ef(request.k, request.ef_search)
        batch = self._search([request], request.k, ef)
        outcomes[request.request_id] = RequestOutcome(
            request=request, status=RequestStatus.OK, dispatch_us=now,
            complete_us=float(batch.complete_us[0]), wave_id=-1,
            ef_used=ef, ids=batch.results[0].ids,
            distances=batch.results[0].distances)
        immediate.append(ImmediateServe(
            request_id=request.request_id, served_us=now,
            service_us=self.clock.now_us - now))

    def _search(self, members: list[Request], k: int, ef: int):
        """One engine call over ``members`` in order, with their routes."""
        routes = [self._routes.pop(r.request_id) for r in members]
        with self.client.engine.routed(
                [clusters for clusters, _ in routes],
                sum(charged for _, charged in routes)):
            return self.client.search_batch(
                np.stack([r.query for r in members]), k, ef_search=ef)

    # -- the wave trigger --------------------------------------------------
    def _due_us(self) -> float | None:
        """When the pending wave must form: at once (``-inf``) when
        ``max_batch`` requests wait, else once the oldest has waited
        ``max_wait_us``; ``None`` when nothing waits.

        The loop advances the clock to exactly this sum and tests
        ``due <= now`` against it — never ``now - oldest >= max_wait_us``,
        which can round below the budget at the boundary and spin.
        """
        if self.queues.pending >= self.config.max_batch:
            return -math.inf
        return self._timer_us()

    def _timer_us(self) -> float | None:
        """When the oldest waiting request has waited ``max_wait_us``;
        ``None`` when nothing waits."""
        if not self.queues.pending:
            return None
        return self.queues.oldest_arrival_us() + self.config.max_wait_us

    def _dispatch_due(self, waves: list[WaveRecord],
                      outcomes: dict[int, RequestOutcome]) -> bool:
        """Form and dispatch the pending wave if it is due now."""
        now = self.clock.now_us
        due = self._due_us()
        if due is None or due > now:
            return False
        self._dispatch(self._form_wave(), now, waves, outcomes)
        return True

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
            del self._routes[request.request_id]
            outcomes[request.request_id] = RequestOutcome(
                request=request, status=RequestStatus.SHED_DEADLINE,
                dispatch_us=now, complete_us=now, wave_id=wave_id,
                ef_used=0)
        status = RequestStatus.DEGRADED if degraded else RequestStatus.OK
        fetched = 0
        for (k, ef), members in groups.items():
            batch = self._search(members, k, ef)
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
