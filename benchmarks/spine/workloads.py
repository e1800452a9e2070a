"""The four fixed workloads: set-up, measured window, answer checks.

Every workload is a pair of functions.  ``setup`` builds everything a
run needs from the seed — corpus, queries, exact ground truth, arrival
times, op order, the :class:`~repro.cluster.Deployment`, clients, warm-up
— and is what ``setup_s`` times.  ``measure`` drives a *fixed list of
ops* through the program's public calls from one thread and returns a
:class:`Window`; op counts never depend on the wall clock, so every
simulated number, counter and answer repeats exactly for a seed.

The program only ever sees generated inputs; what a workload is *for* is
in ``README.md`` and in ``WORKLOADS[...].why``.
"""

from __future__ import annotations

import dataclasses
import gc
import time
from typing import Callable

import numpy as np

from repro.cluster import Deployment
from repro.core import DHnswConfig, Scheme
from repro.core.client import DHnswClient
from repro.core.config import FrontDoorConfig
from repro.core.fsck import fsck
from repro.datasets import exact_knn, make_clustered
from repro.frontdoor import FrontDoor, make_requests, poisson_arrivals
from repro.metrics.recall import per_query_recall

from benchmarks.spine.stats import answer_digest, midmean, percentile
from benchmarks.spine.tracer import Tracer

__all__ = ["K", "EF_SEARCH", "NPROBE", "SCALES", "WORKLOADS", "Sizes",
           "Window", "Workload"]

K = 10
EF_SEARCH = 32
NPROBE = 4
#: Returned distances must match the exact squared-L2 distance of the
#: returned id to this relative tolerance (float32 accumulation order).
DISTANCE_RTOL = 1e-3
#: The front door's latency limit on p99 (sim-µs) for ``max_rate_in_slo``.
DOOR_P99_LIMIT_US = 6000.0
DOOR_REFERENCE_RATE = 8000
#: The corpus, the deployment built over it and ``churn_mixed``'s write
#: stream are the same for every ``--seed``; the seed draws the read
#: traffic (see :func:`dataset` and :func:`setup_churn_mixed`).
FIXTURE_SEED = 0
QUERY_POOL = 32768


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Op counts and corpus sizes of one ``--scale``.

    ``full`` is what ``BENCHMARK.json`` freezes: trimmed from the issue's
    20k/12k recipe so that three set-ups plus a ~10 s window fit the
    driver's per-run budget on a 2-core box (build is ~1 ms/vector), while
    every reported percentile keeps at least ten samples beyond it.
    """

    vectors: int
    representatives: int
    data_clusters: int
    hot_batches: int
    hot_batch_size: int
    cold_batches: int
    cold_batch_size: int
    cold_warm_batches: int
    door_rates: tuple[int, ...]
    door_requests: int
    churn_writes: int
    churn_read_batches: int
    churn_read_batch_size: int
    churn_capacity: int
    churn_warm_batches: int


SCALES = {
    "full": Sizes(vectors=5000, representatives=40, data_clusters=60,
                  hot_batches=240, hot_batch_size=64,
                  cold_batches=1200, cold_batch_size=8,
                  cold_warm_batches=50,
                  door_rates=(4000, 8000, 12000, 16000, 24000),
                  door_requests=2000,
                  churn_writes=1200, churn_read_batches=200,
                  churn_read_batch_size=16, churn_capacity=32,
                  churn_warm_batches=10),
    "smoke": Sizes(vectors=1500, representatives=16, data_clusters=24,
                   hot_batches=200, hot_batch_size=8,
                   cold_batches=200, cold_batch_size=8,
                   cold_warm_batches=20,
                   door_rates=(4000, 8000, 12000, 16000, 24000),
                   door_requests=1000,
                   churn_writes=1000, churn_read_batches=200,
                   churn_read_batch_size=6, churn_capacity=32,
                   churn_warm_batches=5),
}


def scaled(count: int, seconds: float, floor: int) -> int:
    """``count`` is sized for a 10 s window; scale it to ``seconds`` but
    never below the sample floor a reported percentile needs."""
    return max(floor, int(round(count * seconds / 10.0)))


# ---------------------------------------------------------------------------
# What a measured window hands back
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class Window:
    """Everything one measured window produced.

    ``sim`` holds the simulated-clock metrics, ``counters`` the exact
    counts read from public result fields; both must repeat exactly for
    a seed (with and without tracing).  ``wall`` holds the noisy ones.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)
    digest: str = ""
    recall_at_10: float = 0.0
    sim: dict[str, float] = dataclasses.field(default_factory=dict)
    wall: dict[str, float] = dataclasses.field(default_factory=dict)
    counters: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Per-rate front-door numbers, keyed by rate (empty elsewhere).
    door: dict[int, dict[str, float]] = dataclasses.field(
        default_factory=dict)

    def fail(self, count: int, what: str) -> None:
        if count:
            self.failed += count
            self.problems.append(f"{count} x {what}")


class ReadLog:
    """Accumulates what reads returned (fed by :func:`tap_reader`)."""

    COUNTER_FIELDS = ("clusters_fetched", "cache_hits", "cache_misses",
                      "cache_evictions", "duplicate_requests_pruned",
                      "waves", "sub_evals", "overlap_saved_us")
    RDMA_FIELDS = ("round_trips", "bytes_read", "retries")

    def __init__(self) -> None:
        self.batches = 0
        self.queries = 0
        #: Per call: wall seconds and queries answered.
        self.wall_s: list[float] = []
        self.sizes: list[int] = []
        #: Per call: simulated µs the batch took, in total and per query.
        self.sim_total_us: list[float] = []
        self.sim_us_per_query: list[float] = []
        self.answers: list[tuple[np.ndarray, np.ndarray]] = []
        self.counters = dict.fromkeys(
            self.COUNTER_FIELDS + self.RDMA_FIELDS, 0.0)

    def record(self, result, wall_s: float) -> None:
        size = result.batch_size
        self.batches += 1
        self.queries += size
        self.wall_s.append(wall_s)
        self.sizes.append(size)
        self.sim_total_us.append(result.breakdown.total_us)
        self.sim_us_per_query.append(result.latency_per_query_us)
        for row in result.results:
            self.answers.append((row.ids, row.distances))
        for name in self.COUNTER_FIELDS:
            self.counters[name] += getattr(result, name)
        for name in self.RDMA_FIELDS:
            self.counters[name] += getattr(result.rdma, name)


def tap_reader(client, log: ReadLog) -> None:
    """Time and record every ``client.search_batch`` call.

    An instance attribute, so calls the front door makes internally are
    seen too (the door does not hand back its ``BatchResult``s).  Present
    in traced and untraced runs alike.
    """
    inner = client.search_batch

    def tapped(queries, k, ef_search=None, filter_fn=None):
        start = time.perf_counter()
        result = inner(queries, k, ef_search, filter_fn)
        log.record(result, time.perf_counter() - start)
        return result

    client.search_batch = tapped


class WriteLog:
    """Accumulates what writes cost (fed by :func:`tap_writer`)."""

    def __init__(self) -> None:
        self.wall_s: list[float] = []
        self.sim_us: list[float] = []
        self.rebuilt: list[bool] = []

    def record(self, report, wall_s: float, sim_us: float) -> None:
        self.wall_s.append(wall_s)
        self.sim_us.append(sim_us)
        self.rebuilt.append(bool(report.triggered_rebuild))

    def typical_wall_s(self) -> float:
        """Wall of all writes: plain ones at their mid-mean price, the
        rebuild-triggering ones summed.

        A write that triggers a shadow rebuild costs 100-3000x a plain
        one and its cost follows the size of the group it rebuilds, so
        the couple of dozen per window have no typical price — and one
        robust average over all writes would not see them at all.
        """
        wall = np.asarray(self.wall_s)
        rebuilt = np.asarray(self.rebuilt)
        plain = wall[~rebuilt]
        return float(wall[rebuilt].sum()
                     + (midmean(plain) * len(plain) if len(plain) else 0))


def tap_writer(client, log: WriteLog) -> None:
    """Time ``insert``/``delete`` on the acting writer's own clock."""
    clock = client.node.clock
    for verb in ("insert", "delete"):
        inner = getattr(client, verb)

        def tapped(vector, global_id, inner=inner):
            sim_start = clock.now_us
            start = time.perf_counter()
            report = inner(vector, global_id)
            log.record(report, time.perf_counter() - start,
                       clock.now_us - sim_start)
            return report

        setattr(client, verb, tapped)


# ---------------------------------------------------------------------------
# Answer checks
# ---------------------------------------------------------------------------
def check_answers(window: Window, answers, queries: np.ndarray,
                  truth: np.ndarray, vectors_by_id: np.ndarray) -> np.ndarray:
    """Per-op correctness of ``answers``; returns per-query recall@10.

    A query is a failed op when it returns fewer than ``K`` ids, repeats
    an id, returns an id out of range, orders its distances wrongly, or
    reports a distance that is not the exact squared-L2 distance of the
    id it names.
    """
    ids = np.full((len(answers), K), -1, dtype=np.int64)
    dists = np.zeros((len(answers), K), dtype=np.float64)
    short = 0
    for row, (row_ids, row_dists) in enumerate(answers):
        if len(row_ids) != K:
            short += 1
            continue
        ids[row] = row_ids
        dists[row] = row_dists
    complete = ids[:, 0] >= 0
    in_range = ((ids >= 0) & (ids < len(vectors_by_id))).all(axis=1)
    close = np.empty(len(answers), dtype=bool)
    # Blocked so the checker's scratch never sets the process's peak RSS.
    for start in range(0, len(answers), 1024):
        block = slice(start, start + 1024)
        safe = np.where(in_range[block, None], ids[block], 0)
        offsets = (vectors_by_id[safe].astype(np.float64)
                   - queries[block, None, :])
        exact = np.einsum("qkd,qkd->qk", offsets, offsets)
        close[block] = np.isclose(dists[block], exact, rtol=DISTANCE_RTOL,
                                  atol=1e-3).all(axis=1)
    ordered = (np.diff(dists, axis=1) >= 0).all(axis=1)
    unique = (np.diff(np.sort(ids, axis=1), axis=1) != 0).all(axis=1)
    window.fail(short, f"answer with fewer than {K} ids")
    window.fail(int((complete & ~in_range).sum()), "answer id out of range")
    window.fail(int((complete & in_range & ~close).sum()),
                "distance is not the named id's exact distance")
    window.fail(int((complete & in_range & close
                     & ~(ordered & unique)).sum()),
                "answer not sorted or repeats an id")
    return per_query_recall(ids, truth, K)


@dataclasses.dataclass(frozen=True)
class Inputs:
    vectors: np.ndarray
    queries: np.ndarray
    ground_truth: np.ndarray
    #: Held-out points that are the same for every seed (churn inserts).
    reserved: np.ndarray


def dataset(sizes: Sizes, num_queries: int, seed: int,
            reserved: int = 0) -> Inputs:
    """The fixed corpus plus ``num_queries`` seeded held-out queries.

    The corpus is a fixture — ``sift_like``'s recipe (128-d, byte range,
    clustered) drawn once from :data:`FIXTURE_SEED` — so every seed
    measures the same index and simulated numbers differ between seeds
    only through the traffic.  ``--seed`` picks the queries without
    replacement from a held-out pool of the same draw, exactly how
    ``sift_like`` holds out its query set; the first ``reserved`` points
    of the pool are set aside, seed-independent.
    """
    if reserved + num_queries > QUERY_POOL:
        raise ValueError(
            f"window needs {reserved + num_queries} distinct held-out "
            f"points but the pool has {QUERY_POOL}; use a smaller --seconds")
    points = make_clustered(sizes.vectors + QUERY_POOL, 128,
                            sizes.data_clusters, 0.08,
                            np.random.default_rng(FIXTURE_SEED),
                            low=0.0, high=255.0)
    vectors = points[:sizes.vectors]
    pool = points[sizes.vectors:]
    picks = reserved + np.random.default_rng([seed, 0]).choice(
        QUERY_POOL - reserved, size=num_queries, replace=False)
    queries = pool[picks]
    return Inputs(vectors, queries, exact_knn(vectors, queries, K),
                  pool[:reserved])


def config(sizes: Sizes, **overrides) -> DHnswConfig:
    """Single process, single thread: the box has two cores."""
    return DHnswConfig(num_representatives=sizes.representatives,
                       nprobe=NPROBE, search_workers=1, build_workers=0,
                       seed=FIXTURE_SEED, **overrides)


def deploy(vectors: np.ndarray, cfg: DHnswConfig) -> Deployment:
    """Build the deployment; its wall time rides along as
    ``deployment.build_wall_s`` for the ``build.*`` layer metrics."""
    start = time.perf_counter()
    deployment = Deployment(vectors, cfg, num_compute_instances=1,
                            scheme=Scheme.DHNSW,
                            simulate_link_contention=False)
    deployment.build_wall_s = time.perf_counter() - start
    return deployment


def typical_wall_per_query(log: ReadLog) -> float:
    """Wall seconds per query at the mid-mean read call: each call's wall
    over its query count, weighted by that count.

    The box shares its cores: neighbours slow it down by 1.5-2x for
    seconds at a time, never speed it up, so a plain sum over the window
    swings with those episodes (see :func:`~benchmarks.spine.stats.midmean`).
    """
    sizes = np.asarray(log.sizes, dtype=np.float64)
    return midmean(np.asarray(log.wall_s) / sizes, sizes)


def fill_read_metrics(window: Window, log: ReadLog) -> None:
    """The metrics every workload derives the same way from its reads.

    The latency samples are the closed-loop ones (a query completes with
    its batch); the open-loop workload overwrites them with arrival ->
    completion at its reference rate.
    """
    window.wall["wall_qps"] = 1.0 / typical_wall_per_query(log)
    window.wall["window_wall_s"] = log.queries / window.wall["wall_qps"]
    window.sim["sim_us_per_query_p50"] = percentile(log.sim_us_per_query,
                                                    0.50)
    window.sim["sim_us_per_query_p95"] = percentile(log.sim_us_per_query,
                                                    0.95)
    # Closed loop: every query of a batch completes with the batch.
    latency = np.repeat(log.sim_total_us, log.sizes)
    window.sim["sim_latency_p50_us"] = percentile(latency, 0.50)
    window.sim["sim_latency_p99_us"] = percentile(latency, 0.99)
    window.sim["sim_busy_ms"] = sum(log.sim_total_us) / 1e3
    window.counters.update(log.counters)
    window.counters["read_batches"] = log.batches
    window.counters["read_queries"] = log.queries


# ---------------------------------------------------------------------------
# hot_batch / cold_stream: closed loop, one client, fixed batches
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class BatchFixture:
    deployment: Deployment
    client: DHnswClient
    vectors: np.ndarray
    queries: np.ndarray
    truth: np.ndarray
    batch_size: int

    def close(self) -> None:
        self.client.close()


def setup_hot_batch(seed: int, sizes: Sizes, seconds: float,
                    tracer: Tracer | None) -> BatchFixture:
    batches = scaled(sizes.hot_batches, seconds, 200)
    data = dataset(sizes, batches * sizes.hot_batch_size, seed)
    deployment = deploy(data.vectors, config(sizes,
                                             cache_fraction=1.0))
    client = deployment.client(0)
    # Warm with corpus rows (each routes to its own partition first)
    # until every cluster is resident, so the window fetches nothing.
    order = np.random.default_rng([seed, 1]).permutation(sizes.vectors)
    clusters = deployment.build_report.num_partitions
    for start in range(0, sizes.vectors, 256):
        if len(client.cache) == clusters:
            break
        client.search_batch(data.vectors[order[start:start + 256]], K,
                            ef_search=EF_SEARCH)
    if tracer is not None:
        tracer.install_client(client)
    return BatchFixture(deployment, client, data.vectors, data.queries,
                        data.ground_truth, sizes.hot_batch_size)


def setup_cold_stream(seed: int, sizes: Sizes, seconds: float,
                      tracer: Tracer | None) -> BatchFixture:
    batches = scaled(sizes.cold_batches, seconds, 200)
    warm = sizes.cold_warm_batches * sizes.cold_batch_size
    data = dataset(sizes, warm + batches * sizes.cold_batch_size, seed)
    deployment = deploy(data.vectors, config(
        sizes, cache_fraction=0.10, pipeline_waves=True))
    client = deployment.client(0)
    # The working set is every cluster, far more than the cache holds;
    # the warm-up only puts the LRU into its steady state.
    for start in range(0, warm, sizes.cold_batch_size):
        client.search_batch(data.queries[start:start + sizes.cold_batch_size],
                            K, ef_search=EF_SEARCH)
    if tracer is not None:
        tracer.install_client(client)
    return BatchFixture(deployment, client, data.vectors,
                        data.queries[warm:], data.ground_truth[warm:],
                        sizes.cold_batch_size)


def measure_batches(fixture: BatchFixture, tracer: Tracer | None) -> Window:
    window = Window()
    log = ReadLog()
    client = fixture.client
    tap_reader(client, log)
    queries, size = fixture.queries, fixture.batch_size
    gc.collect()
    for index, start in enumerate(range(0, len(queries), size)):
        if tracer is not None:
            tracer.request = index
        client.search_batch(queries[start:start + size], K,
                            ef_search=EF_SEARCH)
    window.attempted = len(queries)
    recalls = check_answers(window, log.answers, queries, fixture.truth,
                            fixture.vectors)
    window.recall_at_10 = float(recalls.mean())
    window.digest = answer_digest(log.answers)
    fill_read_metrics(window, log)
    window.counters["cache_invalidations"] = client.cache.invalidations
    window.counters["cache_bytes_end"] = client.cache.cached_bytes
    return window


# ---------------------------------------------------------------------------
# frontdoor_open: open loop on the simulated clock
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class DoorFixture:
    deployment: Deployment
    vectors: np.ndarray
    #: rate -> (requests, queries, truth)
    load: dict[int, tuple[list, np.ndarray, np.ndarray]]

    def close(self) -> None:
        for client in self.deployment.clients:
            client.close()


def setup_frontdoor_open(seed: int, sizes: Sizes, seconds: float,
                         tracer: Tracer | None) -> DoorFixture:
    count = scaled(sizes.door_requests, seconds, 1000)
    rates = sizes.door_rates
    data = dataset(sizes, count * len(rates), seed)
    deployment = deploy(data.vectors, config(sizes))
    load = {}
    for slot, rate in enumerate(rates):
        rng = np.random.default_rng([seed, 2, rate])
        queries = data.queries[slot * count:(slot + 1) * count]
        requests = make_requests(
            poisson_arrivals(rate, count, rng), queries, K,
            slo_us=20_000.0, rng=rng, tenants=("t0", "t1", "t2"),
            ef_search=EF_SEARCH)
        load[rate] = (requests, queries,
                      data.ground_truth[slot * count:(slot + 1) * count])
    return DoorFixture(deployment, data.vectors, load)


def measure_frontdoor_open(fixture: DoorFixture,
                           tracer: Tracer | None) -> Window:
    """Arrivals are simulated timestamps, so the generator is never late
    (lateness 0 by construction); latency is arrival -> completion on the
    same clock the engine charges."""
    window = Window()
    # ``shed_late=False``: a request past its deadline is still answered
    # and shows up as latency, so no op of the workload is refused.
    door_config = FrontDoorConfig(max_wait_us=2000.0, max_batch=64,
                                  slo_us=20_000.0, shed_late=False)
    reads = ReadLog()
    answers = []
    recalls = []
    invalidations = 0
    in_slo = []
    gc.collect()
    for rate, (requests, queries, truth) in fixture.load.items():
        client = fixture.deployment.make_client(Scheme.DHNSW,
                                                name=f"door-r{rate}")
        if tracer is not None:
            tracer.install_client(client)
            tracer.request = rate
        tap_reader(client, reads)
        door = FrontDoor(client, door_config)
        if tracer is not None:
            tracer.install_door(door)
        first_wave = len(reads.wall_s)
        start = time.perf_counter()
        report = door.run(requests)
        run_wall_s = time.perf_counter() - start
        client.close()
        # A request costs its wave's search wall over the wave's size,
        # plus the door's own wall (everything in ``run`` outside
        # ``search_batch``) spread evenly over the rate's requests.
        door_self_s = ((run_wall_s - sum(reads.wall_s[first_wave:]))
                       / len(requests))
        for wave in range(first_wave, len(reads.wall_s)):
            reads.wall_s[wave] += door_self_s * reads.sizes[wave]

        outcomes = report.outcomes
        window.attempted += len(requests)
        refused = len(requests) - report.served
        window.fail(refused, f"request shed or refused at {rate} qps")
        served = [o for o in outcomes if o.status.answered]
        rate_answers = [(o.ids, o.distances) for o in served]
        rows = [o.request.request_id for o in served]
        recalls.append(check_answers(window, rate_answers, queries[rows],
                                     truth[rows], fixture.vectors))
        answers.extend(rate_answers)
        latency = [o.latency_us for o in served]
        queue = [o.queue_delay_us for o in served]
        service = [w.service_us for w in report.waves]
        p99 = percentile(latency, 0.99)
        backlog_end = sum(1 for o in outcomes
                          if o.complete_us > requests[-1].arrival_us
                          + door_config.max_wait_us)
        ok = (p99 <= DOOR_P99_LIMIT_US and refused == 0
              and backlog_end <= door_config.max_batch)
        if ok:
            in_slo.append(rate)
        window.door[rate] = {
            "queue_wait_p50_us": percentile(queue, 0.50),
            "queue_wait_p99_us": percentile(queue, 0.99),
            "mean_occupancy": report.mean_occupancy,
            "waves": len(report.waves),
            "service_us_per_wave_p50": float(np.median(service)),
            "shed_admission": report.shed_admission,
            "shed_deadline": report.shed_deadline,
            "degraded": report.degraded,
            "deadline_missed": sum(1 for o in served
                                   if not o.deadline_met),
            "sim_latency_p50_us": percentile(latency, 0.50),
            "sim_latency_p99_us": p99,
            "self_wall_us_per_request": door_self_s * 1e6,
        }
        invalidations += client.cache.invalidations
        window.counters["cache_bytes_end"] = client.cache.cached_bytes

    window.recall_at_10 = float(np.concatenate(recalls).mean())
    window.digest = answer_digest(answers)
    fill_read_metrics(window, reads)
    reference = window.door[DOOR_REFERENCE_RATE]
    window.sim["sim_latency_p50_us"] = reference["sim_latency_p50_us"]
    window.sim["sim_latency_p99_us"] = reference["sim_latency_p99_us"]
    window.sim["max_rate_in_slo_qps"] = float(max(in_slo, default=0))
    window.counters["cache_invalidations"] = invalidations
    return window


# ---------------------------------------------------------------------------
# churn_mixed: two writers and a reader interleaved on one layout
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class ChurnFixture:
    deployment: Deployment
    writers: list[DHnswClient]
    reader: DHnswClient
    #: Row ``i`` is the vector with global id ``i`` (corpus, then inserts).
    vectors_by_id: np.ndarray
    #: ("insert"|"delete", writer, id) or ("read", queries, truth,
    #: deletes so far).
    ops: list[tuple]
    deleted_order: list[int]
    live_inserts: list[int]

    def close(self) -> None:
        for client in (*self.writers, self.reader):
            client.close()


def setup_churn_mixed(seed: int, sizes: Sizes, seconds: float,
                      tracer: Tracer | None) -> ChurnFixture:
    writes = scaled(sizes.churn_writes, seconds, 1000)
    read_batches = scaled(sizes.churn_read_batches, seconds, 200)
    batch = sizes.churn_read_batch_size
    warm = sizes.churn_warm_batches * batch
    inserts = writes - writes // 5
    fresh_per_batch = batch - batch // 2
    data = dataset(sizes, warm + read_batches * fresh_per_batch, seed,
                   reserved=inserts)
    warm_queries, read_pool = data.queries[:warm], data.queries[warm:]
    base = sizes.vectors
    vectors_by_id = np.concatenate([data.vectors, data.reserved])

    # The write stream and where the reads fall in it are a fixture, like
    # the corpus: which groups fill, and so when and how large the
    # rebuilds are, decides ~40% of the window's wall, and drawing it from
    # the seed moved ``window_wall_s`` 12-15% between seeds.  The seed
    # draws what is read: the fresh queries and which recent inserts the
    # other half of each batch asks for.
    fixed = np.random.default_rng([FIXTURE_SEED, 3])
    aim = np.random.default_rng([seed, 3])
    kinds = np.array(["insert"] * inserts + ["delete"] * (writes - inserts)
                     + ["read"] * read_batches)
    fixed.shuffle(kinds)
    live = np.zeros(len(vectors_by_id), dtype=bool)
    live[:base] = True
    live_inserts: list[int] = []
    deleted_order: list[int] = []
    next_insert = base
    next_read = 0
    ops: list[tuple] = []
    for kind in kinds:
        if kind == "delete" and not live_inserts:
            kind = "insert"  # nothing to delete yet; a later insert flips
        if kind == "insert" and next_insert == len(vectors_by_id):
            kind = "delete"
        if kind == "insert":
            ops.append(("insert", int(fixed.integers(2)), next_insert))
            live[next_insert] = True
            live_inserts.append(next_insert)
            next_insert += 1
        elif kind == "delete":
            victim = live_inserts.pop(int(fixed.integers(len(live_inserts))))
            ops.append(("delete", int(fixed.integers(2)), victim))
            live[victim] = False
            deleted_order.append(victim)
        else:
            fresh = read_pool[next_read:next_read + fresh_per_batch]
            next_read += fresh_per_batch
            # Half of each batch asks for one of the 64 latest live
            # inserts (none exist before the first insert).
            aimed = [live_inserts[-1 - int(i)] for i in aim.integers(
                min(len(live_inserts), 64), size=batch - fresh_per_batch)
                     ] if live_inserts else []
            queries = np.concatenate(
                [fresh, vectors_by_id[aimed].reshape(-1, fresh.shape[1])])
            live_ids = np.flatnonzero(live)
            truth = live_ids[exact_knn(vectors_by_id[live_ids], queries, K)]
            ops.append(("read", queries, truth, len(deleted_order)))

    # Every rebuild relocates a group to fresh space and the old extent
    # comes back only after its grace period, fragmented; the default 3x
    # headroom runs out after a few rebuilds per group.
    cfg = config(sizes, overflow_capacity_records=sizes.churn_capacity,
                 region_headroom=8.0)
    deployment = deploy(data.vectors, cfg)
    writers = [DHnswClient(deployment.layout, deployment.meta, cfg,
                           cost_model=deployment.cost_model,
                           name=f"writer{index}") for index in range(2)]
    reader = deployment.make_client(Scheme.DHNSW, name="reader")
    for start in range(0, warm, batch):
        reader.search_batch(warm_queries[start:start + batch], K,
                            ef_search=EF_SEARCH)
    if tracer is not None:
        for client in (*writers, reader):
            tracer.install_client(client)
    return ChurnFixture(deployment, writers, reader, vectors_by_id, ops,
                        deleted_order, live_inserts)


def measure_churn_mixed(fixture: ChurnFixture,
                        tracer: Tracer | None) -> Window:
    window = Window()
    reads = ReadLog()
    writes = WriteLog()
    tap_reader(fixture.reader, reads)
    for writer in fixture.writers:
        tap_writer(writer, writes)
    vectors_by_id = fixture.vectors_by_id
    read_ops = [op for op in fixture.ops if op[0] == "read"]
    gc.collect()
    for index, op in enumerate(fixture.ops):
        if tracer is not None:
            tracer.request = index
        if op[0] == "read":
            fixture.reader.search_batch(op[1], K, ef_search=EF_SEARCH)
        else:
            verb, writer, global_id = op
            getattr(fixture.writers[writer], verb)(
                vectors_by_id[global_id], global_id)

    queries = np.concatenate([op[1] for op in read_ops])
    truth = np.concatenate([op[2] for op in read_ops])
    window.attempted = len(queries) + len(writes.wall_s)
    recalls = check_answers(window, reads.answers, queries, truth,
                            vectors_by_id)
    window.recall_at_10 = float(recalls.mean())
    window.digest = answer_digest(reads.answers)
    # No deleted id may ever come back, judged against the deletes that
    # had been acknowledged when the read was issued.
    resurrected = 0
    answered = iter(reads.answers)
    for op in read_ops:
        gone = fixture.deleted_order[:op[3]]
        for _ in range(len(op[1])):
            resurrected += bool(np.isin(next(answered)[0], gone).any())
    window.fail(resurrected, "read returned a deleted id")

    # Audit from a fresh, untapped client: every acknowledged live insert
    # is its own nearest neighbour, and the layout walks clean.
    if tracer is not None:
        tracer.enabled = False
    audit = fixture.deployment.make_client(Scheme.DHNSW, name="audit")
    live = np.asarray(fixture.live_inserts, dtype=np.int64)
    lost = 0
    for start in range(0, len(live), 64):
        chunk = live[start:start + 64]
        found = audit.search_batch(vectors_by_id[chunk], K,
                                   ef_search=EF_SEARCH)
        lost += sum(1 for want, row in zip(chunk, found.results)
                    if not len(row.ids) or int(row.ids[0]) != int(want))
    audit.close()
    window.attempted += len(live)
    window.fail(lost, "acknowledged insert is not its own top-1")
    report = fsck(fixture.deployment.layout)
    if not report.clean:
        window.fail(1, "fsck found errors:\n" + report.summary())

    fill_read_metrics(window, reads)
    window.sim["sim_busy_ms"] += sum(writes.sim_us) / 1e3
    window.sim["sim_us_per_write_p50"] = percentile(writes.sim_us, 0.50)
    window.sim["sim_us_per_write_p99"] = percentile(writes.sim_us, 0.99)
    window.wall["window_wall_s"] += writes.typical_wall_s()
    window.wall["wall_writes_per_s"] = (len(writes.wall_s)
                                        / writes.typical_wall_s())
    window.wall["wall_ms_per_write_p50"] = percentile(writes.wall_s,
                                                      0.50) * 1e3
    clients = (*fixture.writers, fixture.reader)
    stats = [client.mutation.stats for client in clients]
    window.counters.update({
        "writes": len(writes.wall_s),
        "rebuild_triggers": sum(writes.rebuilt),
        "rebuilds_led": sum(s.rebuilds_led for s in stats),
        "rebuilds_yielded": sum(s.rebuilds_yielded for s in stats),
        "records_migrated": sum(s.records_migrated for s in stats),
        "sealed_retries": sum(s.sealed_retries for s in stats),
        "reclaimed_bytes": sum(s.reclaimed_bytes for s in stats),
        "reclaim_pending_bytes_end":
            fixture.deployment.layout.retired.pending_bytes,
        "cas_failures": sum(c.node.stats.cas_failures for c in clients),
        "cache_invalidations": sum(c.cache.invalidations for c in clients),
        "cache_bytes_end": fixture.reader.cache.cached_bytes,
        "region_tail_bytes_end": fixture.deployment.layout.allocator.tail,
    })
    return window


# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable
    measure: Callable


WORKLOADS = {w.name: w for w in (
    Workload("hot_batch",
             "every cluster cached, big batches: beam search is ~80% of "
             "wall, fetch/decode 0; a compute, route or merge kernel shows "
             "here and must not move a simulated number",
             setup_hot_batch, measure_batches),
    Workload("cold_stream",
             "working set >> 10% cache, 8-query batches, pipelined waves: "
             "fetch+decode dominate the simulated clock; layout, transport, "
             "planner and cache changes show here, hot_batch stays put",
             setup_cold_stream, measure_batches),
    Workload("frontdoor_open",
             "open-loop Poisson arrivals from 3 tenants at 5 fixed rates: "
             "queue wait and wave forming set latency; a scheduling change "
             "moves sim_latency here and nothing on the batch workloads",
             setup_frontdoor_open, measure_frontdoor_open),
    Workload("churn_mixed",
             "2 writers + 1 reader interleaved, overflow 32: shadow "
             "rebuilds, cache invalidation and tail validation; a read-side "
             "gain that costs writers, or a build-kernel gain, shows here",
             setup_churn_mixed, measure_churn_mixed),
)}
