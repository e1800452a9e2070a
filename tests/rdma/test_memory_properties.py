"""Property tests: remote memory behaves like memory."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdma import CostModel, MemoryNode, QueuePair, SimClock

REGION_SIZE = 1024


def fresh_qp():
    node = MemoryNode()
    region = node.register(REGION_SIZE)
    qp = QueuePair(node, SimClock(), CostModel())
    qp.connect()
    return qp, region


@settings(max_examples=50, deadline=None)
@given(writes=st.lists(
    st.tuples(st.integers(min_value=0, max_value=REGION_SIZE - 1),
              st.binary(min_size=1, max_size=64)),
    min_size=1, max_size=20))
def test_reads_reflect_last_write(writes):
    """Apply random overlapping writes; the region must equal a plain
    bytearray subjected to the same writes."""
    qp, region = fresh_qp()
    model = bytearray(REGION_SIZE)
    for offset, data in writes:
        data = data[:REGION_SIZE - offset]
        if not data:
            continue
        qp.write(region.rkey, region.base_addr + offset, data)
        model[offset:offset + len(data)] = data
    assert qp.read(region.rkey, region.base_addr,
                        REGION_SIZE) == bytes(model)


@settings(max_examples=50, deadline=None)
@given(deltas=st.lists(st.integers(min_value=-1000, max_value=1000),
                       min_size=1, max_size=30))
def test_faa_sequence_sums(deltas):
    """A FAA sequence must observe running prefix sums (mod 2^64)."""
    qp, region = fresh_qp()
    running = 0
    for delta in deltas:
        observed = qp.faa(region.rkey, region.base_addr, delta)
        assert observed == running % (1 << 64)
        running += delta


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.integers(min_value=0, max_value=2**63),
                       min_size=1, max_size=20))
def test_cas_chain(values):
    """CAS succeeds iff the expected value matches the current one."""
    qp, region = fresh_qp()
    current = 0
    for value in values:
        observed = qp.cas(region.rkey, region.base_addr, current,
                               value)
        assert observed == current
        current = value
    # A CAS with a stale expectation must fail and leave the value.
    stale = qp.cas(region.rkey, region.base_addr, current + 1, 0)
    assert stale == current


@settings(max_examples=30, deadline=None)
@given(chunks=st.lists(st.integers(min_value=1, max_value=100),
                       min_size=1, max_size=15))
def test_network_time_additive(chunks):
    """Total charged network time equals the sum of per-op costs."""
    qp, region = fresh_qp()
    model = qp.cost_model
    expected = 0.0
    for size in chunks:
        qp.read(region.rkey, region.base_addr, min(size, REGION_SIZE))
        expected += model.read_us(min(size, REGION_SIZE))
    assert qp.stats.network_time_us == np.float64(expected)
