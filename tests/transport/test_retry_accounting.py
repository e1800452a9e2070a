"""Fault-path accounting regressions: exact ledgers, honest timelines.

Pins three contracts of the retrying/fault-injecting stack:

* one injected fault is one recorded fault — the plan's ledger and the
  stats ledger agree exactly across the sync and async paths (a
  double-count would show up as ``faults_injected > plan.faults_injected``);
* an async READ's timeout is charged on the *original issue* timeline:
  compute that elapsed between issue and poll overlaps the fault window,
  so only the un-elapsed remainder is charged at poll;
* a faulted async token is abandoned, releasing its copy-on-write guard
  (leaked guards would make every later WRITE pay snapshot costs).
"""

from __future__ import annotations

import pytest

from repro.rdma import CostModel, MemoryNode
from repro.rdma.clock import SimClock
from repro.rdma.qp import ReadDescriptor
from repro.rdma.stats import RdmaStats
from repro.transport import (
    FaultInjectingTransport,
    FaultKind,
    FaultPlan,
    RetryingTransport,
    connect,
)

PAYLOAD = bytes(range(128))
TIMEOUT_US = 1000.0


def wired_stack(schedule: dict[int, FaultKind]):
    node = MemoryNode()
    region = node.register(4096)
    clock = SimClock()
    transport = RetryingTransport(
        FaultInjectingTransport(
            connect(node, clock, CostModel(), RdmaStats()),
            FaultPlan(schedule=dict(schedule)), timeout_us=TIMEOUT_US),
        max_retries=3)
    transport.write(region.rkey, region.base_addr, PAYLOAD)
    return transport, node, region, clock


class TestLedgerAgreement:
    def test_sync_schedule_pins_exact_counters(self):
        transport, _, region, _ = wired_stack({
            0: FaultKind.TIMEOUT,
            1: FaultKind.CORRUPT_EXTENT,
            3: FaultKind.PARTIAL_READ,
        })
        plan = transport.inner.plan
        # Op ordinals: call 1 consumes 0 (fault) + 1 (fault) + 2 (clean);
        # call 2 consumes 3 (fault) + 4 (clean).
        assert bytes(transport.read(
            region.rkey, region.base_addr, 64)) == PAYLOAD[:64]
        assert bytes(transport.read(
            region.rkey, region.base_addr, 64)) == PAYLOAD[:64]
        assert transport.stats.retries == 3
        # Backoff restarts per logical op: 50 + 100, then 50.
        assert transport.stats.backoff_time_us == pytest.approx(200.0)
        assert transport.stats.faults_injected == 3
        assert plan.faults_injected == 3
        assert plan.ops_seen == 5

    def test_async_schedule_pins_exact_counters(self):
        transport, _, region, _ = wired_stack({0: FaultKind.TIMEOUT})
        plan = transport.inner.plan
        token = transport.read_batch_async(
            [ReadDescriptor(region.rkey, region.base_addr, 64)])
        (payload,) = transport.poll(token)
        assert bytes(payload) == PAYLOAD[:64]
        assert transport.stats.faults_injected == 1 == plan.faults_injected
        assert transport.stats.retries == 1
        assert transport.stats.backoff_time_us == pytest.approx(50.0)


class TestAsyncFaultTimeline:
    def scenario(self, compute_us: float):
        transport, node, region, clock = wired_stack({0: FaultKind.TIMEOUT})
        token = transport.read_batch_async(
            [ReadDescriptor(region.rkey, region.base_addr, 64)])
        if compute_us:
            clock.advance(compute_us)
        (payload,) = transport.poll(token)
        assert bytes(payload) == PAYLOAD[:64]
        return transport, node, clock

    def test_timeout_charged_from_issue_not_poll(self):
        # The fault window opens at issue.  Compute overlapping it must
        # not stretch the timeline: both runs end at the same now_us
        # (the pre-fix bug charged the full window again at poll, making
        # the overlapped run 800 us longer).
        _, _, idle_clock = self.scenario(compute_us=0.0)
        _, _, busy_clock = self.scenario(compute_us=800.0)
        assert busy_clock.now_us == pytest.approx(idle_clock.now_us)

    def test_compute_past_the_window_adds_only_the_excess(self):
        _, _, idle_clock = self.scenario(compute_us=0.0)
        _, _, late_clock = self.scenario(compute_us=TIMEOUT_US + 300.0)
        assert late_clock.now_us == pytest.approx(idle_clock.now_us + 300.0)

    @pytest.mark.parametrize("kind", [FaultKind.TIMEOUT,
                                      FaultKind.PARTIAL_READ,
                                      FaultKind.CORRUPT_EXTENT,
                                      FaultKind.STALE_METADATA])
    def test_faulted_async_token_releases_cow_guard(self, kind):
        transport, node, region, _ = wired_stack({0: kind})
        token = transport.read_batch_async(
            [ReadDescriptor(region.rkey, region.base_addr, 64)])
        (payload,) = transport.poll(token)
        assert bytes(payload) == PAYLOAD[:64]
        assert node._guards == []
        assert transport.stats.faults_injected == 1
