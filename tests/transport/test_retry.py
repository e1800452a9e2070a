"""Retry-policy unit tests: bounded re-attempts, honest backoff charging."""

from __future__ import annotations

import pytest

from repro.errors import (
    ConfigError,
    RetryExhaustedError,
    TransportError,
    TransportTimeoutError,
)
from repro.rdma import CostModel, MemoryNode
from repro.rdma.clock import SimClock
from repro.rdma.qp import ReadDescriptor
from repro.rdma.stats import RdmaStats
from repro.transport import (
    FaultInjectingTransport,
    FaultKind,
    FaultPlan,
    RetryingTransport,
    Transport,
    connect,
)
from repro.transport.retry import backoff_us

PAYLOAD = bytes(range(96))


@pytest.fixture()
def wired():
    node = MemoryNode()
    region = node.register(4096)
    transport = connect(node, SimClock(), CostModel(), RdmaStats())
    transport.write(region.rkey, region.base_addr, PAYLOAD)
    return transport, region.rkey, region.base_addr


def stack(inner, plan, max_retries=3, timeout_us=1000.0):
    """The canonical decorator order: retry around fault around sim."""
    return RetryingTransport(
        FaultInjectingTransport(inner, plan, timeout_us=timeout_us),
        max_retries)


class TestRetryPolicy:
    def test_backoff_sequence_is_exponential_and_capped(self):
        assert [backoff_us(n) for n in range(1, 10)] == [
            50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 5000.0,
            5000.0]

    def test_validation(self, wired):
        inner, _, _ = wired
        with pytest.raises(ConfigError, match="max_retries"):
            RetryingTransport(inner, max_retries=-1)


class TestRetriedReads:
    def test_single_fault_retries_to_identical_payload(self, wired):
        inner, rkey, addr = wired
        transport = stack(inner, FaultPlan(
            schedule={0: FaultKind.CORRUPT_EXTENT}))
        assert transport.read(rkey, addr, len(PAYLOAD)) == PAYLOAD
        assert transport.stats.retries == 1
        assert transport.stats.faults_injected == 1
        assert transport.stats.backoff_time_us == pytest.approx(50.0)

    def test_backoff_escalates_across_faults_on_one_op(self, wired):
        inner, rkey, addr = wired
        # Ordinals 0 and 1 both fault: the first call consumes both before
        # succeeding on its third attempt.
        transport = stack(
            inner,
            FaultPlan(schedule={0: FaultKind.TIMEOUT,
                                1: FaultKind.TIMEOUT}))
        assert transport.read(rkey, addr, len(PAYLOAD)) == PAYLOAD
        assert transport.stats.retries == 2
        assert transport.stats.backoff_time_us == pytest.approx(50.0 + 100.0)

    def test_backoff_and_timeout_charged_to_clock(self, wired):
        inner, rkey, addr = wired
        clean_elapsed = None
        # Measure a clean READ's wire time on an identical fresh stack.
        probe_node = MemoryNode()
        probe_region = probe_node.register(4096)
        probe = connect(probe_node, SimClock(), CostModel(), RdmaStats())
        probe.write(probe_region.rkey, probe_region.base_addr, PAYLOAD)
        before = probe.clock.now_us
        probe.read(probe_region.rkey, probe_region.base_addr, len(PAYLOAD))
        clean_elapsed = probe.clock.now_us - before

        transport = stack(
            inner, FaultPlan(schedule={0: FaultKind.TIMEOUT}),
            timeout_us=400.0)
        before = transport.clock.now_us
        transport.read(rkey, addr, len(PAYLOAD))
        elapsed = transport.clock.now_us - before
        # Faulted attempt: armed timeout; then backoff; then the real READ.
        assert elapsed == pytest.approx(400.0 + 50.0 + clean_elapsed)

    def test_exhaustion_raises_typed_error_with_history(self, wired):
        inner, rkey, addr = wired
        transport = stack(
            inner,
            FaultPlan(fault_rate=1.0, kinds=(FaultKind.TIMEOUT,)),
            max_retries=2)
        with pytest.raises(RetryExhaustedError) as exc:
            transport.read(rkey, addr, len(PAYLOAD))
        assert isinstance(exc.value, TransportError)
        assert exc.value.attempts == 3  # initial try + 2 retries
        assert isinstance(exc.value.last_error, TransportTimeoutError)
        assert exc.value.op == "READ"
        assert transport.stats.retries == 2
        assert transport.stats.faults_injected == 3

    def test_zero_retries_fails_on_first_fault(self, wired):
        inner, rkey, addr = wired
        transport = stack(
            inner, FaultPlan(schedule={0: FaultKind.CORRUPT_EXTENT}),
            max_retries=0)
        with pytest.raises(RetryExhaustedError):
            transport.read(rkey, addr, len(PAYLOAD))
        assert transport.stats.retries == 0

    def test_async_poll_replays_synchronously(self, wired):
        inner, rkey, addr = wired
        transport = stack(inner, FaultPlan(
            schedule={0: FaultKind.CORRUPT_EXTENT}))
        pending = transport.read_batch_async(
            [ReadDescriptor(rkey, addr, len(PAYLOAD))])
        assert transport.poll(pending) == [PAYLOAD]
        assert transport.stats.retries == 1

    def test_async_exhaustion(self, wired):
        inner, rkey, addr = wired
        transport = stack(
            inner, FaultPlan(fault_rate=1.0, kinds=(FaultKind.TIMEOUT,)),
            max_retries=1)
        pending = transport.read_batch_async(
            [ReadDescriptor(rkey, addr, len(PAYLOAD))])
        with pytest.raises(RetryExhaustedError) as exc:
            transport.poll(pending)
        assert exc.value.op == "ASYNC_READ"

    def test_protocol_conformance(self, wired):
        inner, _, _ = wired
        assert isinstance(stack(inner, FaultPlan()), Transport)
