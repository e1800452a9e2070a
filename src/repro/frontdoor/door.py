"""The front door: an event loop coalescing requests into engine waves.

:class:`FrontDoor` sits between independently arriving single-query
requests and a :class:`~repro.core.client.DHnswClient`.  It runs on the
client's :class:`~repro.rdma.clock.SimClock` — the same timeline every
RDMA verb and compute charge advances — so queue delay, batching delay,
and service time compose into one honest end-to-end latency per request.

The loop alternates between exactly two event kinds: the next arrival,
and the instant the pending wave becomes due (oldest wait hits
``max_wait_us``, or ``max_batch`` fills at an arrival).  Dispatch calls
``search_batch`` once per ``(k, ef)`` group, which advances the clock by
the wave's service time; arrivals that land "during" service simply queue
with their original timestamps, so backlog and queue delay emerge from
the simulation rather than being modelled.  A request completes when *its*
answer is final — ``BatchResult.complete_us``: the engine serves rows in
the EDF order the door hands them over and stamps each once its own last
cluster is searched (a hit's once its tail word has landed) — not when
its wave ends, nor when every other row's hits are, so the request that
waited longest for the wave to form leaves it first.

Determinism contract: admission is charged at *arrival* timestamps (not
dispatch), DRR order is a function of the arrival sequence, and the
engine is deterministic — so the same requests + the same seed replay the
identical schedule, wave for wave.  Answers are bit-identical to calling
``search_batch`` directly on the same queries (wave composition only
changes *when* clusters are fetched, never what a query answers), which
``benchmarks/perf/bench_frontdoor.py`` gates.
"""

from __future__ import annotations

import collections
import dataclasses
import heapq
import math
from typing import Mapping, Sequence

import numpy as np

from repro.core.config import FrontDoorConfig
from repro.frontdoor.admission import (AdmissionController,
                                       DeficitRoundRobin, TenantPolicy)
from repro.frontdoor.batch_former import BatchFormer, FormedWave
from repro.frontdoor.loadgen import ClosedLoopSession
from repro.frontdoor.request import Request, RequestOutcome, RequestStatus
from repro.frontdoor.scheduler import SloScheduler

__all__ = ["FrontDoor", "LoadReport", "TenantReport", "WaveRecord"]


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
        self.admission = AdmissionController(self.tenants)
        self.former = BatchFormer(self.config,
                                  DeficitRoundRobin(self.tenants))
        self.scheduler = SloScheduler(self.config,
                                      client.engine.resolve_ef)
        self._wave_counter = 0

    # -- request intake --------------------------------------------------
    def tenant_slo_us(self, tenant: str) -> float:
        """Deadline budget for ``tenant`` (policy override or default)."""
        policy = self.tenants.get(tenant)
        if policy is not None and policy.slo_us is not None:
            return policy.slo_us
        return self.config.slo_us

    def _admit(self, request: Request) -> RequestOutcome | None:
        """Admission-check one arrival: queue it (``None``), or shed it on
        the spot and return that outcome."""
        if self.admission.admit(request):
            self.former.offer(request)
            return None
        return RequestOutcome(
            request=request, status=RequestStatus.SHED_ADMISSION,
            dispatch_us=float("nan"), complete_us=request.arrival_us,
            wave_id=-1, ef_used=0)

    # -- wave dispatch ----------------------------------------------------
    def _dispatch_wave(self, waves: list[WaveRecord]
                       ) -> list[RequestOutcome]:
        """Form and execute one wave; returns the wave's outcomes."""
        now = self.clock.now_us
        wave = self.former.form(now, self._wave_counter)
        self._wave_counter += 1
        plan = self.scheduler.plan(wave, backlog=self.former.pending)

        produced: list[RequestOutcome] = []
        for request in plan.shed:
            produced.append(RequestOutcome(
                request=request, status=RequestStatus.SHED_DEADLINE,
                dispatch_us=wave.formed_us, complete_us=now,
                wave_id=wave.wave_id, ef_used=0))

        service_start = now
        fetched = 0
        status = (RequestStatus.DEGRADED if plan.degraded
                  else RequestStatus.OK)
        for group in plan.groups:
            queries = np.stack([r.query for r in group.requests])
            batch = self.client.search_batch(queries, group.k,
                                             ef_search=group.ef)
            # Rows went in EDF order and the engine serves them in the
            # order given, stamping each when its answer is final.
            completes = batch.complete_us.tolist()
            fetched += batch.clusters_fetched
            self._attribute_wait_stages(batch, wave, group.requests,
                                        completes)
            for request, result, complete in zip(group.requests,
                                                 batch.results, completes):
                produced.append(RequestOutcome(
                    request=request, status=status,
                    dispatch_us=wave.formed_us, complete_us=complete,
                    wave_id=wave.wave_id, ef_used=group.ef,
                    ids=result.ids, distances=result.distances))

        waves.append(WaveRecord(
            wave_id=wave.wave_id, formed_us=wave.formed_us,
            request_ids=tuple(r.request_id for group in plan.groups
                              for r in group.requests),
            groups=tuple((g.k, g.ef, len(g.requests))
                         for g in plan.groups),
            shed_ids=tuple(r.request_id for r in plan.shed),
            degraded=plan.degraded,
            service_us=self.clock.now_us - service_start,
            clusters_fetched=fetched))
        return produced

    def _attribute_wait_stages(self, batch, wave: FormedWave,
                               members: tuple[Request, ...],
                               completes: Sequence[float]) -> None:
        """Record the members' waits as first-class trace stages.

        The engine's trace covers route→plan→fetch→decode→compute→merge;
        the front door prepends ``queue`` (the time its members spent
        waiting for the wave to form) and ``in_wave`` (dispatch → each
        member's own completion, summed over members), so
        ``telemetry.render_trace`` shows the full request path with the
        two waits first.  Observation only — the clock already advanced
        past them.
        """
        trace = batch.trace
        if trace is None:
            return
        in_wave = trace.ensure_stage_first("in_wave")
        in_wave.calls += len(members)
        in_wave.sim_us += sum(complete - wave.formed_us
                              for complete in completes)
        queue = trace.ensure_stage_first("queue")
        queue.calls += len(members)
        queue.sim_us += sum(wave.formed_us - r.arrival_us
                            for r in members)

    # -- the event loop ---------------------------------------------------
    def _serve(self, peek, pop, completed,
               issued: Sequence[Request]) -> LoadReport:
        """Admit what has arrived, dispatch a ready wave, else advance the
        clock to the next arrival or due time — until both run dry.

        The arrival source: ``peek()`` is the next arrival's time (``None``
        when there is none), ``pop()`` its request, ``completed(outcome)``
        hears every outcome as it lands (a closed-loop session schedules
        its next query from it); ``issued`` is every request popped.
        """
        outcomes: dict[int, RequestOutcome] = {}
        waves: list[WaveRecord] = []

        def land(outcome: RequestOutcome) -> None:
            outcomes[outcome.request.request_id] = outcome
            completed(outcome)

        while True:
            now = self.clock.now_us
            upcoming = peek()
            while upcoming is not None and upcoming <= now:
                shed = self._admit(pop())
                if shed is not None:   # completes on the spot
                    land(shed)
                upcoming = peek()
            if self.former.ready(now):
                for outcome in self._dispatch_wave(waves):
                    land(outcome)
                continue
            targets = [t for t in (upcoming, self.former.due_us())
                       if t is not None]
            if not targets:
                break
            self.clock.advance_to(min(targets))
            # Loop back: the drain admits a reached arrival, and a
            # waited-out batch budget makes ``ready`` true.
        return self._report(outcomes, waves, issued)

    def run(self, requests: Sequence[Request]) -> LoadReport:
        """Serve a pre-generated (open-loop) arrival sequence to completion.

        ``requests`` must be sorted by ``arrival_us`` (load generators
        produce them that way); ties are served in sequence order.
        Arrivals are fixed in advance — queue delay under load comes out
        of the simulation, not out of the generator.
        """
        for earlier, later in zip(requests, requests[1:]):
            if later.arrival_us < earlier.arrival_us:
                raise ValueError(
                    "open-loop requests must be sorted by arrival_us")
        waiting = collections.deque(requests)
        return self._serve(
            peek=lambda: waiting[0].arrival_us if waiting else None,
            pop=waiting.popleft, completed=lambda outcome: None,
            issued=requests)

    def run_closed_loop(self, sessions: Sequence[ClosedLoopSession],
                        first_request_id: int = 0) -> LoadReport:
        """Serve closed-loop sessions: each issues, waits, thinks, repeats.

        Every session keeps exactly one request in flight; its next query
        issues at ``completion + think_us``.  Sheds count as instant
        completions so a rate-limited tenant keeps pacing rather than
        deadlocking.  Throughput here is self-limiting — the classic
        closed-loop property — which makes it the right mode for
        measuring steady-state capacity.
        """
        # (issue_us, session_index, query_index): the tuple order makes
        # simultaneous issues deterministic.
        pending: list[tuple[float, int, int]] = [
            (session.start_us, index, 0)
            for index, session in enumerate(sessions)
            if len(session.queries)]
        heapq.heapify(pending)
        by_request: dict[int, tuple[int, int]] = {}
        issued: list[Request] = []

        def pop() -> Request:
            issue_us, session_index, query_index = heapq.heappop(pending)
            session = sessions[session_index]
            request = Request(
                request_id=first_request_id + len(issued),
                tenant=session.tenant,
                query=session.queries[query_index], k=session.k,
                arrival_us=max(issue_us, 0.0),
                slo_us=(session.slo_us if session.slo_us is not None
                        else self.tenant_slo_us(session.tenant)),
                ef_search=session.ef_search)
            by_request[request.request_id] = (session_index, query_index)
            issued.append(request)
            return request

        def completed(outcome: RequestOutcome) -> None:
            session_index, query_index = by_request[outcome.request.request_id]
            session = sessions[session_index]
            following = query_index + 1
            if following < len(session.queries):
                think = float(session.think_us[query_index])
                heapq.heappush(pending, (outcome.complete_us + think,
                                         session_index, following))

        return self._serve(
            peek=lambda: pending[0][0] if pending else None,
            pop=pop, completed=completed, issued=issued)

    # -- reporting --------------------------------------------------------
    def _report(self, outcomes: dict[int, RequestOutcome],
                waves: list[WaveRecord],
                requests: Sequence[Request]) -> LoadReport:
        ordered = tuple(outcomes[r.request_id] for r in requests
                        if r.request_id in outcomes)
        start = min((r.arrival_us for r in requests), default=0.0)
        end = max((o.complete_us for o in ordered), default=start)
        return LoadReport(outcomes=ordered, waves=tuple(waves),
                          start_us=start, end_us=end)
