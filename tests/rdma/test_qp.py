"""Queue-pair verbs: state machine, time charging, stats recording."""

from __future__ import annotations

import pytest

from repro.errors import QpStateError
from repro.rdma import (
    CostModel,
    MemoryNode,
    QpState,
    QueuePair,
    ReadDescriptor,
    SimClock,
)


@pytest.fixture()
def setup():
    node = MemoryNode()
    region = node.register(4096)
    clock = SimClock()
    qp = QueuePair(node, clock, CostModel(doorbell_limit=4))
    qp.connect()
    return node, region, clock, qp


class TestStateMachine:
    def test_verb_before_connect_rejected(self):
        node = MemoryNode()
        region = node.register(64)
        qp = QueuePair(node, SimClock(), CostModel())
        with pytest.raises(QpStateError):
            qp.read(region.rkey, region.base_addr, 8)

    def test_verb_after_close_rejected(self, setup):
        _, region, _, qp = setup
        qp.close()
        with pytest.raises(QpStateError):
            qp.read(region.rkey, region.base_addr, 8)

    def test_reconnect_after_close_rejected(self, setup):
        _, _, _, qp = setup
        qp.close()
        with pytest.raises(QpStateError):
            qp.connect()

    def test_states_transition(self):
        qp = QueuePair(MemoryNode(), SimClock(), CostModel())
        assert qp.state is QpState.RESET
        qp.connect()
        assert qp.state is QpState.READY
        qp.close()
        assert qp.state is QpState.CLOSED


class TestVerbs:
    def test_write_then_read(self, setup):
        _, region, _, qp = setup
        qp.write(region.rkey, region.base_addr, b"abcdef")
        assert qp.read(region.rkey, region.base_addr, 6) == b"abcdef"

    def test_read_advances_clock(self, setup):
        _, region, clock, qp = setup
        model = qp.cost_model
        qp.read(region.rkey, region.base_addr, 1000)
        assert clock.now_us == pytest.approx(model.read_us(1000))

    def test_faa_roundtrip(self, setup):
        _, region, _, qp = setup
        assert qp.faa(region.rkey, region.base_addr, 7) == 0
        assert qp.faa(region.rkey, region.base_addr, 1) == 7

    def test_cas_roundtrip(self, setup):
        _, region, _, qp = setup
        assert qp.cas(region.rkey, region.base_addr, 0, 5) == 0
        assert qp.cas(region.rkey, region.base_addr, 5, 9) == 5

    def test_stats_record_each_verb(self, setup):
        _, region, _, qp = setup
        qp.write(region.rkey, region.base_addr, b"xy")
        qp.read(region.rkey, region.base_addr, 2)
        qp.faa(region.rkey, region.base_addr + 8, 1)
        stats = qp.stats
        assert stats.write_ops == 1
        assert stats.read_ops == 1
        assert stats.atomic_ops == 1
        assert stats.round_trips == 3
        assert stats.bytes_written == 2
        assert stats.bytes_read == 2
        assert stats.network_time_us > 0


class TestDoorbellBatch:
    def test_returns_payloads_in_order(self, setup):
        _, region, _, qp = setup
        qp.write(region.rkey, region.base_addr, b"AA")
        qp.write(region.rkey, region.base_addr + 100, b"BB")
        payloads = qp.read_batch([
            ReadDescriptor(region.rkey, region.base_addr, 2),
            ReadDescriptor(region.rkey, region.base_addr + 100, 2),
        ])
        assert payloads == [b"AA", b"BB"]

    def test_empty_batch_noop(self, setup):
        _, _, clock, qp = setup
        assert qp.read_batch([]) == []
        assert clock.now_us == 0.0
        assert qp.stats.round_trips == 0

    def test_one_ring_counts_one_round_trip(self, setup):
        _, region, _, qp = setup
        descriptors = [ReadDescriptor(region.rkey, region.base_addr + i, 1)
                       for i in range(4)]  # limit is 4
        qp.read_batch(descriptors)
        assert qp.stats.round_trips == 1
        assert qp.stats.read_ops == 4
        assert qp.stats.doorbell_batches == 1

    def test_oversized_batch_splits_rings(self, setup):
        _, region, _, qp = setup
        descriptors = [ReadDescriptor(region.rkey, region.base_addr + i, 1)
                       for i in range(9)]  # limit 4 -> 3 rings
        qp.read_batch(descriptors)
        assert qp.stats.round_trips == 3

    def test_doorbell_cheaper_than_individual(self, setup):
        node, region, _, qp = setup
        descriptors = [ReadDescriptor(region.rkey, region.base_addr + 64 * i,
                                      64) for i in range(4)]
        qp.read_batch(descriptors)
        batched_time = qp.stats.network_time_us

        other = QueuePair(node, SimClock(), qp.cost_model)
        other.connect()
        for descriptor in descriptors:
            other.read(descriptor.rkey, descriptor.addr,
                            descriptor.length)
        assert batched_time < other.stats.network_time_us


class TestAsyncReadBatch:
    def descriptors(self, region, count=3, size=64):
        return [ReadDescriptor(region.rkey, region.base_addr + size * i,
                               size) for i in range(count)]

    def test_issue_does_not_advance_clock(self, setup):
        _, region, clock, qp = setup
        pending = qp.read_batch_async(self.descriptors(region))
        assert clock.now_us == 0.0
        assert pending.elapsed_us > 0.0
        assert pending.completes_at_us == pytest.approx(pending.elapsed_us)

    def test_poll_returns_payloads_in_order(self, setup):
        _, region, _, qp = setup
        qp.write(region.rkey, region.base_addr, b"AA")
        qp.write(region.rkey, region.base_addr + 100, b"BB")
        pending = qp.read_batch_async([
            ReadDescriptor(region.rkey, region.base_addr, 2),
            ReadDescriptor(region.rkey, region.base_addr + 100, 2),
        ])
        assert qp.poll(pending) == [b"AA", b"BB"]

    def test_payloads_snapshot_at_issue(self, setup):
        """One-sided READs observe remote memory as of the issue; a write
        landing between issue and poll must not be visible."""
        _, region, _, qp = setup
        qp.write(region.rkey, region.base_addr, b"old")
        pending = qp.read_batch_async(
            [ReadDescriptor(region.rkey, region.base_addr, 3)])
        qp.write(region.rkey, region.base_addr, b"new")
        assert qp.poll(pending) == [b"old"]

    def test_immediate_poll_charges_full_wire_time(self, setup):
        _, region, clock, qp = setup
        pending = qp.read_batch_async(self.descriptors(region))
        qp.poll(pending)
        assert clock.now_us == pytest.approx(pending.elapsed_us)
        assert qp.stats.network_time_us == pytest.approx(pending.elapsed_us)
        assert qp.stats.overlapped_time_us == 0.0

    def test_compute_between_issue_and_poll_is_hidden(self, setup):
        _, region, clock, qp = setup
        pending = qp.read_batch_async(self.descriptors(region))
        overlap = pending.elapsed_us / 2
        clock.advance(overlap)                      # simulated compute
        qp.poll(pending)
        assert clock.now_us == pytest.approx(pending.elapsed_us)
        assert qp.stats.network_time_us == pytest.approx(
            pending.elapsed_us - overlap)
        assert qp.stats.overlapped_time_us == pytest.approx(overlap)

    def test_fully_hidden_fetch_charges_nothing(self, setup):
        _, region, clock, qp = setup
        pending = qp.read_batch_async(self.descriptors(region))
        clock.advance(pending.elapsed_us * 3)       # compute dominates
        before = clock.now_us
        qp.poll(pending)
        assert clock.now_us == before               # no exposed wait
        assert qp.stats.network_time_us == 0.0
        assert qp.stats.overlapped_time_us == pytest.approx(
            pending.elapsed_us)

    def test_exposed_plus_hidden_is_serial_cost(self, setup):
        """Whatever the overlap, exposed + hidden reconstructs exactly the
        time a synchronous doorbell batch would have charged."""
        node, region, clock, qp = setup
        sync = QueuePair(node, SimClock(), qp.cost_model)
        sync.connect()
        sync.read_batch(self.descriptors(region))
        pending = qp.read_batch_async(self.descriptors(region))
        clock.advance(1.0)
        qp.poll(pending)
        assert (qp.stats.network_time_us + qp.stats.overlapped_time_us
                == pytest.approx(sync.stats.network_time_us))

    def test_stats_count_batch_like_sync_doorbell(self, setup):
        _, region, _, qp = setup
        pending = qp.read_batch_async(self.descriptors(region, count=9))
        qp.poll(pending)
        assert qp.stats.read_ops == 9
        assert qp.stats.round_trips == 3            # doorbell_limit=4
        assert qp.stats.doorbell_batches == 1
        assert qp.stats.bytes_read == 9 * 64

    def test_non_doorbell_costs_serial_reads(self, setup):
        _, region, _, qp = setup
        descriptors = self.descriptors(region, count=4)
        pending = qp.read_batch_async(descriptors, doorbell=False)
        expected = sum(qp.cost_model.read_us(d.length) for d in descriptors)
        assert pending.elapsed_us == pytest.approx(expected)
        assert pending.rings == 4
        qp.poll(pending)
        assert qp.stats.doorbell_batches == 0
        assert qp.stats.round_trips == 4

    def test_double_poll_raises(self, setup):
        _, region, _, qp = setup
        pending = qp.read_batch_async(self.descriptors(region))
        qp.poll(pending)
        with pytest.raises(QpStateError, match="twice"):
            qp.poll(pending)

    def test_empty_batch_is_free(self, setup):
        _, _, clock, qp = setup
        pending = qp.read_batch_async([])
        assert qp.poll(pending) == []
        assert clock.now_us == 0.0
        assert qp.stats.round_trips == 0

    def test_sync_read_queues_behind_async(self, setup):
        """A blocking verb issued while an async batch occupies the wire
        waits for the channel, exactly like a second WQE on one NIC."""
        _, region, clock, qp = setup
        pending = qp.read_batch_async(self.descriptors(region))
        read_cost = qp.cost_model.read_us(8)
        qp.read(region.rkey, region.base_addr, 8)
        assert clock.now_us == pytest.approx(
            pending.elapsed_us + read_cost)
        # The async batch then completes under the sync verb's wait.
        qp.poll(pending)
        assert qp.stats.overlapped_time_us == pytest.approx(
            pending.elapsed_us)

    def test_verbs_require_ready_state(self, setup):
        _, region, _, qp = setup
        pending = qp.read_batch_async(self.descriptors(region))
        qp.close()
        with pytest.raises(QpStateError):
            qp.read_batch_async(self.descriptors(region))
        with pytest.raises(QpStateError):
            qp.poll(pending)
