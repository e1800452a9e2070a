"""Compute-instance compute-time charging."""

from __future__ import annotations

import pytest

from repro.rdma import ComputeNode, CostModel, MemoryNode


@pytest.fixture()
def node() -> ComputeNode:
    return ComputeNode(MemoryNode(), CostModel())


class TestComputeCharging:
    def test_charge_compute_advances_clock(self, node):
        elapsed = node.charge_compute(100, 128)
        assert elapsed > 0
        assert node.clock.now_us == pytest.approx(elapsed)
        assert node.compute_time_us == pytest.approx(elapsed)

    def test_charge_time_accumulates(self, node):
        node.charge_time(5.0)
        node.charge_time(2.5)
        assert node.compute_time_us == pytest.approx(7.5)

    def test_qp_ready_out_of_the_box(self, node):
        region = node.qp.memory_node.register(64)
        node.qp.post_write(region.rkey, region.base_addr, b"ok")
        assert node.qp.post_read(region.rkey, region.base_addr, 2) == b"ok"

    def test_network_and_compute_tracked_separately(self, node):
        region = node.qp.memory_node.register(64)
        node.qp.post_read(region.rkey, region.base_addr, 8)
        node.charge_compute(10, 16)
        assert node.stats.network_time_us > 0
        assert node.compute_time_us > 0
        assert node.clock.now_us == pytest.approx(
            node.stats.network_time_us + node.compute_time_us)
