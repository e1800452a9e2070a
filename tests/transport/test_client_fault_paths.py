"""Fault paths through the full serving stack.

A client whose transport is wrapped in fault-injecting + retrying
decorators must return bit-identical answers to a clean client — only
slower, with the retries and backoff visible in its ledgers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import Scheme
from repro.core.client import DHnswClient
from repro.errors import RdmaError, RetryExhaustedError, TransportError
from repro.telemetry import (
    ClientTelemetry,
    DeploymentTelemetry,
    render_report,
)
from repro.transport import (
    FaultInjectingTransport,
    FaultKind,
    FaultPlan,
    RetryingTransport,
)


def wrap_faulty(client: DHnswClient, plan: FaultPlan,
                max_retries: int = 3,
                timeout_us: float = 500.0) -> DHnswClient:
    """Install the canonical retry-around-faults stack on ``client``.

    Wrapping after construction keeps the startup metadata READ clean;
    the serving stages resolve ``client.transport`` per call, so every
    query-time verb goes through the decorators.
    """
    client.transport = RetryingTransport(
        FaultInjectingTransport(client.transport, plan,
                                timeout_us=timeout_us),
        max_retries)
    return client


def assert_same_answers(result_a, result_b) -> None:
    assert len(result_a.results) == len(result_b.results)
    for one, other in zip(result_a.results, result_b.results):
        np.testing.assert_array_equal(one.ids, other.ids)
        np.testing.assert_array_equal(one.distances, other.distances)
    assert result_a.sub_evals == result_b.sub_evals
    assert result_a.clusters_fetched == result_b.clusters_fetched
    assert result_a.cache_hits == result_b.cache_hits
    assert result_a.waves == result_b.waves


class TestRetriedSearch:
    def test_faulted_search_returns_identical_answers(self, built_deployment,
                                                      small_dataset):
        queries = small_dataset.queries[:8]
        clean = built_deployment.make_client(Scheme.DHNSW, "clean")
        faulted = wrap_faulty(
            built_deployment.make_client(Scheme.DHNSW, "faulted"),
            FaultPlan(schedule={0: FaultKind.TIMEOUT,
                                1: FaultKind.CORRUPT_EXTENT,
                                3: FaultKind.STALE_METADATA}))
        try:
            baseline = clean.search_batch(queries, k=10)
            survived = faulted.search_batch(queries, k=10)
            assert_same_answers(baseline, survived)
            # The per-batch RdmaStats delta shows the recovery work...
            assert survived.rdma.faults_injected == 3
            assert survived.rdma.retries == 3
            assert survived.rdma.backoff_time_us > 0.0
            # ...and the faulted run burned more simulated network time.
            assert (survived.rdma.network_time_us
                    > baseline.rdma.network_time_us)
        finally:
            clean.close()
            faulted.close()

    def test_faulted_pipelined_search_identical(self, built_deployment,
                                                small_dataset):
        config = built_deployment.config.replace(pipeline_waves=True)
        queries = small_dataset.queries[:12]
        make = lambda name: DHnswClient(  # noqa: E731
            built_deployment.layout, built_deployment.meta, config,
            cost_model=built_deployment.effective_cost_model, name=name)
        clean = make("pipe-clean")
        faulted = wrap_faulty(make("pipe-faulted"), FaultPlan(
            schedule={1: FaultKind.CORRUPT_EXTENT,
                      2: FaultKind.TIMEOUT,
                      4: FaultKind.PARTIAL_READ}))
        try:
            baseline = clean.search_batch(queries, k=10)
            survived = faulted.search_batch(queries, k=10)
            assert_same_answers(baseline, survived)
            assert survived.rdma.faults_injected == 3
            assert survived.rdma.retries >= 3
        finally:
            clean.close()
            faulted.close()

    def test_exhausted_budget_raises_typed_error(self, built_deployment,
                                                 small_dataset):
        faulted = wrap_faulty(
            built_deployment.make_client(Scheme.DHNSW, "doomed"),
            FaultPlan(fault_rate=1.0, kinds=(FaultKind.TIMEOUT,)),
            max_retries=1)
        try:
            with pytest.raises(RetryExhaustedError) as exc:
                faulted.search_batch(small_dataset.queries[:4], k=10)
            # The typed chain: RetryExhaustedError is a TransportError is
            # an RdmaError, so existing catch-all handlers still work.
            assert isinstance(exc.value, TransportError)
            assert isinstance(exc.value, RdmaError)
            assert exc.value.attempts == 2
        finally:
            faulted.close()


class TestFaultTelemetry:
    def test_retry_counters_surface_in_telemetry(self, mutable_deployment,
                                                 small_dataset):
        client = wrap_faulty(
            mutable_deployment.client(0),
            FaultPlan(schedule={0: FaultKind.TIMEOUT}))
        client.search_batch(small_dataset.queries[:4], k=10)
        snapshot = ClientTelemetry.from_client(client)
        assert snapshot.retries == 1
        assert snapshot.faults_injected == 1
        assert snapshot.backoff_time_us > 0.0

        report = render_report(
            DeploymentTelemetry.from_deployment(mutable_deployment))
        assert "transport faults" in report
        assert client.node.name in report

    def test_clean_deployment_report_omits_fault_section(
            self, built_deployment):
        report = render_report(
            DeploymentTelemetry.from_deployment(built_deployment))
        assert "transport faults" not in report
