"""The ef_search auto-tuner and wave-pipelining accounting."""

from __future__ import annotations

import pytest

from repro.core import DHnswClient, Scheme
from repro.core.cluster_search import search_cluster_entry
from repro.core.merge import TopKMerger
from repro.core.query_planner import plan_batch
from repro.core.tuning import tune_ef_search
from repro.errors import ConfigError
from repro.metrics import recall_at_k
from tests.serving import reference_loop
from tests.serving.helpers import run_plan


class TestTuneEfSearch:
    @pytest.fixture(scope="class")
    def client(self, built_deployment, small_config):
        return DHnswClient(built_deployment.layout, built_deployment.meta,
                           small_config, scheme=Scheme.DHNSW,
                           cost_model=built_deployment.cost_model)

    def test_meets_reachable_target(self, client, small_dataset):
        result = tune_ef_search(client, small_dataset.queries,
                                small_dataset.ground_truth, k=10,
                                target_recall=0.7, ef_max=64)
        assert result.target_met
        assert result.recall >= 0.7
        assert 1 <= result.ef_search <= 64

    def test_chosen_ef_is_minimal(self, client, small_dataset):
        result = tune_ef_search(client, small_dataset.queries,
                                small_dataset.ground_truth, k=10,
                                target_recall=0.7, ef_max=64)
        if result.ef_search > 1:
            batch = client.search_batch(small_dataset.queries, 10,
                                        ef_search=result.ef_search - 1)
            below = recall_at_k(batch.ids_list(),
                                small_dataset.ground_truth, 10)
            assert below < 0.7

    def test_unreachable_target_reported(self, client, small_dataset):
        result = tune_ef_search(client, small_dataset.queries,
                                small_dataset.ground_truth, k=10,
                                target_recall=1.0, ef_max=2)
        assert not result.target_met
        assert result.ef_search == 2

    def test_probe_log_recorded(self, client, small_dataset):
        result = tune_ef_search(client, small_dataset.queries,
                                small_dataset.ground_truth, k=10,
                                target_recall=0.7, ef_max=32)
        assert len(result.evaluations) >= 2
        assert all(1 <= ef <= 32 for ef, _ in result.evaluations)

    def test_validation(self, client, small_dataset):
        with pytest.raises(ConfigError):
            tune_ef_search(client, small_dataset.queries,
                           small_dataset.ground_truth, 10,
                           target_recall=0.0)
        with pytest.raises(ConfigError):
            tune_ef_search(client, small_dataset.queries,
                           small_dataset.ground_truth, 10,
                           target_recall=0.9, ef_min=10, ef_max=5)


class TestWavePipelining:
    def test_disabled_by_default(self, built_deployment, small_config,
                                 small_dataset):
        """The name predates the served default: the look-ahead is on
        unless a config states the paper's serial loader, as this one
        does."""
        assert small_config.pipeline_waves
        client = DHnswClient(built_deployment.layout,
                             built_deployment.meta,
                             small_config.replace(pipeline_waves=False),
                             cost_model=built_deployment.cost_model)
        batch = client.search_batch(small_dataset.queries, 10,
                                    ef_search=32)
        assert batch.waves >= 2
        assert batch.overlap_saved_us == 0.0
        # Nothing overlapped, so the serial reconstruction is the total.
        assert (batch.serial_latency_per_query_us
                == pytest.approx(batch.latency_per_query_us))

    def test_pipelining_saves_time_on_multi_wave_batches(
            self, built_deployment, small_config, small_dataset):
        """Since PR 4 the overlap is scheduled for real: the measured total
        already includes it, so the end-to-end latency beats what a serial
        schedule of the same waves would have charged."""
        config = small_config.replace(pipeline_waves=True)
        client = DHnswClient(built_deployment.layout,
                             built_deployment.meta, config,
                             cost_model=built_deployment.cost_model)
        batch = client.search_batch(small_dataset.queries, 10,
                                    ef_search=48)
        assert batch.waves >= 2  # tiny cache forces waves
        assert batch.overlap_saved_us > 0.0
        assert (batch.latency_per_query_us
                < batch.serial_latency_per_query_us)

    def test_measured_overlap_matches_oracle(self, built_deployment,
                                             small_config, small_dataset):
        """Measured hidden wire time == what the test-side transcription
        of the ready-list loop adds up from its own READs (each READ's
        wire time less the wait its poll exposed) — and the staged loop
        hides exactly as much as the oracle loop does."""
        config = small_config.replace(pipeline_waves=True)
        staged, oracle = (DHnswClient(built_deployment.layout,
                                      built_deployment.meta, config,
                                      cost_model=built_deployment.cost_model)
                          for _ in range(2))
        executions = reference_loop.install(oracle)
        batch = oracle.search_batch(small_dataset.queries, 10, ef_search=48)
        assert batch.overlap_saved_us == pytest.approx(
            executions[-1].overlap_oracle_us, rel=1e-9, abs=1e-6)
        assert staged.search_batch(
            small_dataset.queries, 10,
            ef_search=48).overlap_saved_us == batch.overlap_saved_us

    def test_wire_time_hidden_behind_a_hit_is_overlap(
            self, built_deployment, small_config, small_dataset):
        """A READ in flight while the CPU searches a cache hit is hidden
        wire time like any other: it lands in ``overlapped_time_us``
        (what ``bench_serve`` holds the pipelined gain to), as much of it
        as the hit's search covers."""
        config = small_config.replace(pipeline_waves=True)
        client = DHnswClient(built_deployment.layout, built_deployment.meta,
                             config, cost_model=built_deployment.cost_model)
        query = small_dataset.queries[:1]
        hit, miss = client.meta.route_batch(query, 2, config.ef_meta)[0]
        executor = client.engine.executor
        warm = plan_batch([[hit]], client.cache, 1)
        run_plan(client, warm, query, TopKMerger(1, 10), 10, 32)
        plan = plan_batch([[hit, miss]], client.cache, 1)
        assert plan.cache_hit_cluster_ids == (hit,)
        hit_us = client.cost_model.compute_us(search_cluster_entry(
            client.cache.peek(hit), query, 10, 32).evals, client.meta.dim)
        before = client.node.stats.snapshot()
        loop = executor.ready_list(plan, query, TopKMerger(1, 10), 10, 32)
        loop.start(len(query))
        read = loop.rings[0].token
        loop.run()
        hidden = client.node.stats.delta(before).overlapped_time_us
        assert hidden > 0.0
        assert hidden == pytest.approx(min(read.elapsed_us, hit_us))
        client.close()

    def test_saving_bounded_by_smaller_resource(self, built_deployment,
                                                small_config,
                                                small_dataset):
        """Overlap can never save more than the full network time or
        the full compute time, whichever is smaller.  ``network_us`` now
        holds only the exposed wait, so the serial wire time is exposed
        plus hidden."""
        config = small_config.replace(pipeline_waves=True)
        client = DHnswClient(built_deployment.layout,
                             built_deployment.meta, config,
                             cost_model=built_deployment.cost_model)
        batch = client.search_batch(small_dataset.queries, 10,
                                    ef_search=48)
        serial_network_us = (batch.breakdown.network_us
                             + batch.overlap_saved_us)
        bound = min(serial_network_us, batch.breakdown.sub_hnsw_us)
        assert batch.overlap_saved_us <= bound + 1e-6

    def test_network_bucket_shrinks_honestly(self, built_deployment,
                                             small_config, small_dataset):
        """Pipelining reduces ``breakdown.network_us`` itself (the hidden
        time is charged to ``rdma.overlapped_time_us``), instead of a
        side-channel estimate next to an unchanged serial total."""
        serial = DHnswClient(built_deployment.layout, built_deployment.meta,
                             small_config.replace(pipeline_waves=False),
                             cost_model=built_deployment.cost_model)
        piped = DHnswClient(built_deployment.layout, built_deployment.meta,
                            small_config.replace(pipeline_waves=True),
                            cost_model=built_deployment.cost_model)
        a = serial.search_batch(small_dataset.queries, 10, ef_search=48)
        b = piped.search_batch(small_dataset.queries, 10, ef_search=48)
        assert b.breakdown.network_us < a.breakdown.network_us
        # Exposed + hidden reconstructs the serial wire time.
        assert (b.breakdown.network_us + b.rdma.overlapped_time_us
                == pytest.approx(a.breakdown.network_us, rel=1e-9))

    def test_results_identical_with_pipelining(self, built_deployment,
                                               small_config,
                                               small_dataset):
        plain = DHnswClient(built_deployment.layout, built_deployment.meta,
                            small_config.replace(pipeline_waves=False),
                            cost_model=built_deployment.cost_model)
        piped = DHnswClient(built_deployment.layout, built_deployment.meta,
                            small_config.replace(pipeline_waves=True),
                            cost_model=built_deployment.cost_model)
        a = plain.search_batch(small_dataset.queries, 10, ef_search=32)
        b = piped.search_batch(small_dataset.queries, 10, ef_search=32)
        assert a.ids_list() == b.ids_list()
