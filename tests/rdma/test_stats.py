"""Traffic counters: snapshot, delta, merge arithmetic."""

from __future__ import annotations

import dataclasses

import pytest

from repro.rdma.stats import RdmaStats


def test_record_read():
    stats = RdmaStats()
    stats.record_read(100, 2.5)
    assert stats.round_trips == 1
    assert stats.bytes_read == 100
    assert stats.network_time_us == pytest.approx(2.5)


def test_record_write():
    stats = RdmaStats()
    stats.record_write(64, 1.0)
    assert stats.write_ops == 1
    assert stats.bytes_written == 64


def test_record_atomic():
    stats = RdmaStats()
    stats.record_atomic(2.3)
    assert stats.atomic_ops == 1
    assert stats.round_trips == 1
    assert stats.bytes_read == 0


def test_record_doorbell_counts_rings_not_wqes():
    stats = RdmaStats()
    stats.record_doorbell_read([10, 20, 30], rings=1, time_us=4.0)
    assert stats.round_trips == 1
    assert stats.read_ops == 3
    assert stats.doorbell_batches == 1
    assert stats.bytes_read == 60


def test_snapshot_is_independent_copy():
    stats = RdmaStats()
    stats.record_read(10, 1.0)
    snap = stats.snapshot()
    stats.record_read(10, 1.0)
    assert snap.read_ops == 1
    assert stats.read_ops == 2


def test_delta_subtracts_all_fields():
    stats = RdmaStats()
    stats.record_read(10, 1.0)
    earlier = stats.snapshot()
    stats.record_write(5, 0.5)
    stats.record_atomic(2.0)
    delta = stats.delta(earlier)
    assert delta.read_ops == 0
    assert delta.write_ops == 1
    assert delta.atomic_ops == 1
    assert delta.round_trips == 2
    assert delta.network_time_us == pytest.approx(2.5)


def test_merge_accumulates():
    left = RdmaStats()
    left.record_read(10, 1.0)
    right = RdmaStats()
    right.record_write(20, 2.0)
    right.record_doorbell_read([1, 2], rings=1, time_us=0.5)
    left.merge(right)
    assert left.round_trips == 3
    assert left.bytes_read == 13
    assert left.bytes_written == 20
    assert left.network_time_us == pytest.approx(3.5)


def test_every_counter_round_trips_snapshot_delta_and_merge():
    """A counter added to ``RdmaStats`` is carried by ``snapshot``,
    ``delta`` and ``merge`` without anyone listing it there."""
    names = [field.name for field in dataclasses.fields(RdmaStats)]
    earlier = RdmaStats(**{name: index + 1
                           for index, name in enumerate(names)})
    later = RdmaStats(**{name: 100 * (index + 1)
                         for index, name in enumerate(names)})
    assert later.snapshot() == later
    delta = later.delta(earlier)
    assert [getattr(delta, name) for name in names] == [
        99 * (index + 1) for index in range(len(names))]
    delta.merge(earlier)
    assert delta == later
