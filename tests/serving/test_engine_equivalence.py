"""The ready-list loop vs its test-side transcriptions, bit for bit.

``reference_loop.install`` makes a client replay, from its rule, the
schedule its scheme and config call for (look-ahead on or off, or the
naive scheme's).  For every executor configuration, a staged client and
a reference client over the same layout must produce identical answers
*and* identical simulated ledgers — same RdmaStats field by field, same
latency breakdown, same cache counters, same per-row stamps.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cluster import Deployment
from repro.core.baselines import Scheme
from repro.core.client import DHnswClient
from repro.core.merge import TopKMerger
from repro.core.query_planner import BatchPlan, Wave
from repro.errors import LayoutError
from repro.mutation.rebuild import ShadowRebuild
from repro.rdma import CostModel
from repro.serving import executor as executor_module
from tests.mutation.test_shadow_rebuild import CutoverDuringFetch, fill_group
from tests.serving import reference_loop
from tests.serving.helpers import run_plan

# Row ids predate the retirement of the search worker pools and are kept
# so the suite's ids stay comparable.  Every search runs in the serving
# process; ``thread`` rows spell the retired ``search_workers`` keyword
# out at its one value for the oracle, ``process`` rows leave it unset.
MATRIX = [
    ("thread", 1),
    ("process", 1),
]
#: ``pipeline_waves`` off (the ids predate the one loop: "serial" is
#: look-ahead off) and on.
SCHEDULES = pytest.mark.parametrize("pipeline", [False, True],
                                    ids=["serial", "pipelined"])


def make_pair(deployment, scheme=Scheme.DHNSW, oracle_workers=None,
              **overrides):
    """A staged client and one running the reference loop, same config
    (the oracle's spelling the retired worker count, where given)."""
    config = deployment.config.replace(**overrides)
    oracle_config = (config if oracle_workers is None
                     else config.replace(search_workers=oracle_workers))
    staged, oracle = (
        DHnswClient(deployment.layout, deployment.meta, client_config,
                    scheme=scheme,
                    cost_model=deployment.effective_cost_model, name=name)
        for name, client_config in (("staged", config),
                                    ("oracle", oracle_config)))
    reference_loop.install(oracle)
    return staged, oracle


def assert_ledgers_identical(staged, oracle):
    """Everything a client accumulates: counters, caches and its clock."""
    assert (dataclasses.asdict(staged.node.stats)
            == dataclasses.asdict(oracle.node.stats))
    assert staged.cache.counters() == oracle.cache.counters()
    assert staged.cache.streamed == oracle.cache.streamed
    assert staged.node.clock.now_us == oracle.node.clock.now_us


def assert_batches_identical(staged, oracle):
    for one, other in zip(staged.results, oracle.results, strict=True):
        np.testing.assert_array_equal(one.ids, other.ids)
        np.testing.assert_array_equal(one.distances, other.distances)
    assert dataclasses.asdict(staged.rdma) == dataclasses.asdict(oracle.rdma)
    assert staged.breakdown == oracle.breakdown
    assert staged.sub_evals == oracle.sub_evals
    assert staged.clusters_fetched == oracle.clusters_fetched
    assert staged.cache_hits == oracle.cache_hits
    assert staged.cache_misses == oracle.cache_misses
    assert staged.cache_evictions == oracle.cache_evictions
    assert staged.cache_streamed == oracle.cache_streamed
    assert staged.waves == oracle.waves
    assert (staged.duplicate_requests_pruned
            == oracle.duplicate_requests_pruned)
    assert staged.overlap_saved_us == oracle.overlap_saved_us
    # Per-row completion: both count each row's clusters down against the
    # clock at each merge — same stamps, to the bit.
    assert staged.complete_us.dtype == np.float64
    np.testing.assert_array_equal(staged.complete_us, oracle.complete_us)


def record_plans(client) -> list[BatchPlan]:
    """Every plan ``client`` executes from now on, in order (one per
    attempt, so a retried batch leaves two)."""
    plans: list[BatchPlan] = []
    plan = client.engine.planner.plan

    def recording(required, trace):
        plans.append(plan(required, trace))
        return plans[-1]

    client.engine.planner.plan = recording
    return plans


def record_merges(client) -> list[dict[int, float]]:
    """Per merger ``client`` creates from now on (one per attempt): each
    row's clock at its last merged candidate chunk."""
    merges: list[dict[int, float]] = []
    create = client.engine.merger.create

    def recording(*args, **kwargs):
        merger = create(*args, **kwargs)
        last: dict[int, float] = {}
        merges.append(last)
        add = merger.add

        def add_recording(row, gids, dists):
            last[row] = client.node.clock.now_us
            return add(row, gids, dists)

        merger.add = add_recording
        return merger

    client.engine.merger.create = recording
    return merges


def assert_stamps_follow_the_plan(result, last_merge, batch_end_us):
    """``complete_us`` row by row: a row's stamp is the clock when its
    own last cluster was merged (searched, and a hit's tail word in) —
    never the end of the READ wave it came with — and the last stamp is
    the batch end."""
    stamps = result.complete_us
    assert stamps.shape == (result.batch_size,)
    assert stamps.max() == batch_end_us
    for row in range(result.batch_size):
        assert stamps[row] == last_merge.get(row, batch_end_us), row


def run_cold_then_warm(staged, oracle, queries, k=10):
    """A cold batch (all misses), then a warm one (cache hits plus the
    overflow-tail validation path) — both must match exactly."""
    merges = record_merges(staged)
    try:
        for _ in range(2):
            staged_result = staged.search_batch(queries, k=k)
            oracle_result = oracle.search_batch(queries, k=k)
            assert_batches_identical(staged_result, oracle_result)
            assert_ledgers_identical(staged, oracle)
            assert_stamps_follow_the_plan(staged_result, merges[-1],
                                          staged.node.clock.now_us)
    finally:
        staged.close()
        oracle.close()
    return staged_result


@SCHEDULES
@pytest.mark.parametrize("executor,workers",
                         MATRIX, ids=[f"{e}{w}" for e, w in MATRIX])
def test_staged_matches_reference(built_deployment, small_dataset,
                                  pipeline, executor, workers):
    staged, oracle = make_pair(
        built_deployment, pipeline_waves=pipeline, search_workers=workers,
        oracle_workers=1 if executor == "thread" else None)
    result = run_cold_then_warm(staged, oracle, small_dataset.queries[:12])
    assert result.waves >= 2
    # Wire time hides only under look-ahead; either way some row is final
    # before the batch is.
    assert (result.overlap_saved_us > 0.0) == pipeline
    assert result.complete_us.min() < result.complete_us.max()
    # Only the staged path populates per-stage traces.
    assert result.trace is not None
    assert result.trace.total_sim_us > 0.0


@SCHEDULES
def test_capacity_one_cache(built_deployment, small_dataset, pipeline):
    """The smallest cache: one cluster per wave.  Once it is full, every
    fetched cluster either evicts the resident or is streamed past it;
    the cold batch left the most valuable one resident, so the warm batch
    streams every fetch and evicts nothing."""
    staged, oracle = make_pair(built_deployment, pipeline_waves=pipeline,
                               cache_fraction=1e-9)
    assert staged.cache.capacity_clusters == 1
    result = run_cold_then_warm(staged, oracle, small_dataset.queries[:12])
    assert result.cache_hits == 1 and result.cache_evictions == 0
    assert result.cache_streamed == result.clusters_fetched > 0


@SCHEDULES
def test_hit_evicted_between_planning_and_execution(
        built_deployment, small_dataset, pipeline):
    """A plan whose hit left the cache cannot run: nothing between
    planning and the hits' pinning can evict one, so the executor refuses
    rather than refetch, and leaves no pin and no READ behind."""
    staged, oracle = make_pair(built_deployment, pipeline_waves=pipeline,
                               cache_fraction=1e-9)
    queries = small_dataset.queries[:2]
    plan = BatchPlan(
        waves=(Wave(fetch_cluster_ids=(1,), serviced=((0, 1),)),
               Wave(fetch_cluster_ids=(2,), serviced=((1, 2),))),
        cache_hit_cluster_ids=(0,), unique_clusters=3,
        duplicate_requests_pruned=0,
        clusters=((0, (0, 1)), (1, (0,)), (2, (1,))), first_wave_rows=1,
        ranks=((0, 0), (1,), (1,)))
    rings = staged.node.stats.round_trips
    try:
        for client in (staged, oracle):
            with pytest.raises(LayoutError, match="planned hit 0"):
                run_plan(client, plan, queries, TopKMerger(len(queries), 10),
                         10, 20)
        assert_ledgers_identical(staged, oracle)
        assert staged.node.stats.round_trips == rings
        assert len(staged.cache) == 0
    finally:
        staged.close()
        oracle.close()


@SCHEDULES
def test_all_hit_batch_reads_its_tail_words_once(built_deployment,
                                                 small_dataset, pipeline):
    """A plan that fetches nothing (every cluster a hit) posts one READ,
    of its hits' tail words.  Under look-ahead the hits are searched
    while it is on the wire, so its time hides; without, it lands
    first."""
    staged, oracle = make_pair(built_deployment, pipeline_waves=pipeline,
                               cache_fraction=1.0)
    result = run_cold_then_warm(staged, oracle, small_dataset.queries[:12])
    assert result.waves == 0 and result.cache_hits > 0
    assert result.rdma.round_trips == 2          # the version peek, the words
    assert (result.overlap_saved_us > 0.0) == pipeline


def test_no_doorbell_pipelined(built_deployment, small_dataset):
    """One round trip per cluster, still hidden behind the previous
    wave's search."""
    staged, oracle = make_pair(built_deployment, Scheme.NO_DOORBELL,
                               pipeline_waves=True)
    result = run_cold_then_warm(staged, oracle, small_dataset.queries[:12])
    assert result.overlap_saved_us > 0.0


def test_reference_covers_naive_path(built_deployment, small_dataset):
    """The naive scheme is a plan of one pair per wave through the same
    loop, look-ahead off; the oracle runs its own naive transcription."""
    staged, oracle = make_pair(built_deployment, Scheme.NAIVE)
    result = run_cold_then_warm(staged, oracle, small_dataset.queries[:6],
                                k=5)
    assert result.waves == 6 * built_deployment.config.nprobe
    assert result.cache_hits == 0


def test_answers_match_across_a_peers_rebuild(mutable_deployment,
                                              small_dataset):
    """A second client rebuilds one group between two batches: the
    cached members of that group are stale, and the answers and ledgers
    still match the monolith's, batch for batch."""
    staged, oracle = make_pair(mutable_deployment)
    writer = DHnswClient(mutable_deployment.layout, mutable_deployment.meta,
                         mutable_deployment.config,
                         cost_model=mutable_deployment.effective_cost_model,
                         name="writer")
    queries = small_dataset.queries[:12]
    try:
        assert_batches_identical(staged.search_batch(queries, k=10),
                                 oracle.search_batch(queries, k=10))
        probe = queries[0]
        for i in range(mutable_deployment.config.overflow_capacity_records
                       + 1):
            writer.insert(probe + i * 1e-4, 900_000 + i)
        assert writer.mutation.stats.rebuilds_led == 1
        assert_batches_identical(staged.search_batch(queries, k=10),
                                 oracle.search_batch(queries, k=10))
        assert_ledgers_identical(staged, oracle)
    finally:
        writer.close()
        staged.close()
        oracle.close()


@SCHEDULES
def test_peer_inserts_between_batches(mutable_deployment, small_dataset,
                                      pipeline):
    """A second client lands more records in one group than the fetcher's
    slack covers, without filling it.  The next batch meets them both
    ways — cached members through the tails ring and one delta ring,
    refetched ones through a short read topped up before admission — and
    the oracle, which takes its descriptors and its deltas from the same
    fetcher, must post the same verbs and charges."""
    staged, oracle = make_pair(mutable_deployment, pipeline_waves=pipeline)
    writer = DHnswClient(mutable_deployment.layout, mutable_deployment.meta,
                         mutable_deployment.config,
                         cost_model=mutable_deployment.effective_cost_model,
                         name="writer")
    queries = small_dataset.queries[:12]
    capacity = mutable_deployment.config.overflow_capacity_records
    try:
        assert_batches_identical(staged.search_batch(queries, k=10),
                                 oracle.search_batch(queries, k=10))
        for i in range(capacity - 2):
            writer.insert(queries[0] + i * 1e-4, 910_000 + i)
        assert writer.mutation.stats.rebuilds_led == 0
        before = staged.node.stats.snapshot()
        result = staged.search_batch(queries, k=10)
        assert_batches_identical(result, oracle.search_batch(queries, k=10))
        assert_ledgers_identical(staged, oracle)
        assert result.results[0].ids[0] == 910_000
        # The version peek and one ring per wave (the tail words ride in
        # the first) — and the delta rings this test is about.
        assert result.cache_hits > 0
        rings = staged.node.stats.delta(before).round_trips
        assert rings - 1 - result.waves >= 1
    finally:
        writer.close()
        staged.close()
        oracle.close()


@SCHEDULES
def test_every_search_is_charged(mutable_deployment, small_dataset,
                                 monkeypatch, pipeline):
    """Under look-ahead a lagging hit is searched, charged and discarded,
    then searched again once its delta lands — and nothing is searched
    that is not charged: one ``search_cluster_entry`` per sub-HNSW compute
    charge.  The reader caches every cluster, so the second batch is all
    hits, searched while their tail words fly; the peer inserts fewer
    records than the overflow capacity, so no rebuild runs."""
    searches, charges = [], []
    search = executor_module.search_cluster_entry

    def searching(entry, *args):
        searches.append(entry.cluster_id)
        return search(entry, *args)

    monkeypatch.setattr(executor_module, "search_cluster_entry", searching)
    reader = DHnswClient(mutable_deployment.layout, mutable_deployment.meta,
                         mutable_deployment.config.replace(
                             pipeline_waves=pipeline, cache_fraction=1.0),
                         cost_model=mutable_deployment.effective_cost_model,
                         name="reader")
    writer = DHnswClient(mutable_deployment.layout, mutable_deployment.meta,
                         mutable_deployment.config,
                         cost_model=mutable_deployment.effective_cost_model,
                         name="writer")
    charge_search = reader.engine.executor.charge_search

    def charging(evals, trace):
        charges.append(evals)
        return charge_search(evals, trace)

    reader.engine.executor.charge_search = charging
    plans = record_plans(reader)
    queries = small_dataset.queries[:12]
    capacity = mutable_deployment.config.overflow_capacity_records
    try:
        reader.search_batch(queries, k=10)
        for i in range(capacity - 2):
            writer.insert(queries[0] + i * 1e-4, 920_000 + i)
        assert writer.mutation.stats.rebuilds_led == 0
        del searches[:], charges[:]
        result = reader.search_batch(queries, k=10)
        assert result.cache_hits > 0
        assert result.results[0].ids[0] == 920_000
        # Under look-ahead a lagging hit is searched before its tail word
        # lands, and again after its delta; without, the word lands first.
        assert (len(searches) > len(plans[-1].clusters)) == pipeline
        assert len(searches) == len(charges)
    finally:
        writer.close()
        reader.close()


def test_stamps_come_from_the_attempt_that_returned(small_dataset,
                                                    small_config):
    """A cutover tears the first attempt (``StaleReadError``); the retry
    re-plans on the new epoch and its stamps are the ones handed back —
    none earlier than the retry's start, the last one the batch end.
    Each client gets its own (identically built) deployment: a cutover
    fires once."""
    probe = small_dataset.queries[0]
    capacity = small_config.overflow_capacity_records
    vectors = np.stack([probe + i * 1e-4 for i in range(capacity)]
                       + list(small_dataset.queries[1:9]))
    results, starts, clients = [], [], []
    for install in (False, True):
        deployment = Deployment(small_dataset.vectors, small_config,
                                cost_model=CostModel())
        writer, reader = (
            DHnswClient(deployment.layout, deployment.meta, small_config,
                        cost_model=deployment.cost_model, name=name)
            for name in ("writer", "reader"))
        clients += [writer, reader]
        if install:
            reference_loop.install(reader)
        rebuild = ShadowRebuild(writer.ctx,
                                fill_group(writer, probe, capacity))
        while rebuild.state != "cutover":
            rebuild.step()
        reader.transport = CutoverDuringFetch(reader.transport, rebuild)
        attempt_starts: list[float] = []
        once = reader.engine._search_batch_once

        def counting(*args, _once=once, _starts=attempt_starts,
                     _reader=reader, **kwargs):
            _starts.append(_reader.node.clock.now_us)
            return _once(*args, **kwargs)

        reader.engine._search_batch_once = counting
        merges = record_merges(reader)
        result = reader.search_batch(vectors, 1, ef_search=64)
        assert reader.transport.triggered == 1 and len(attempt_starts) == 2
        assert result.complete_us.min() > attempt_starts[1]
        assert_stamps_follow_the_plan(result, merges[-1],
                                      reader.node.clock.now_us)
        results.append(result)
        starts.append(attempt_starts)
    for client in clients:
        client.close()
    assert starts[0] == starts[1]
    assert_batches_identical(*results)
