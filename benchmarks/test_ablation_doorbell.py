"""A2: the doorbell batch-size trade-off.

§3.2: "there is a tradeoff in the number of batched operations within a
single RDMA command. If too many operations are included in one
round-trip, it can interfere with other RDMA commands and incur long
latency due to the scalability of the RDMA NIC."

We fetch a fixed set of discontinuous cluster extents under varying
``doorbell_limit`` and report the network time.  Small limits pay one
round trip per ring; large limits amortize the RTT across WQEs.
"""

from __future__ import annotations

import dataclasses

from repro.layout.group_layout import cluster_read_extent
from repro.rdma import QueuePair, ReadDescriptor, SimClock

from .conftest import emit_table

LIMITS = (1, 2, 4, 8, 16, 32)


def test_ablation_doorbell_limit(sift_world, benchmark):
    world = sift_world
    layout = world.deployment.layout
    metadata = layout.metadata
    descriptors = [
        ReadDescriptor(layout.rkey, layout.addr(offset), length)
        for offset, length in (cluster_read_extent(metadata, cid)
                               for cid in range(min(16,
                                                    metadata.num_clusters)))
    ]

    results = []
    for limit in LIMITS:
        model = dataclasses.replace(world.cost_model, doorbell_limit=limit)
        qp = QueuePair(layout.memory_node, SimClock(), model)
        qp.connect()
        qp.read_batch(descriptors)
        results.append((limit, qp.stats.round_trips,
                        qp.stats.network_time_us))

    header = f"{'doorbell_limit':>14} {'round_trips':>12} {'network_us':>11}"
    rows = [f"{limit:>14} {rts:>12} {time_us:>11.2f}"
            for limit, rts, time_us in results]
    emit_table("ablation_doorbell", header, rows)

    times = [time_us for _, _, time_us in results]
    round_trips = [rts for _, rts, _ in results]
    # Bigger doorbell rings monotonically reduce round trips and latency.
    assert round_trips == sorted(round_trips, reverse=True)
    assert all(earlier >= later - 1e-9
               for earlier, later in zip(times, times[1:]))
    # Limit 1 degenerates to per-extent round trips.
    assert round_trips[0] == len(descriptors)
    # Past the batch size there is nothing left to amortize.
    assert times[-1] == times[-2]

    model = world.cost_model
    qp = QueuePair(layout.memory_node, SimClock(), model)
    qp.connect()
    benchmark.pedantic(lambda: qp.read_batch(descriptors),
                       rounds=1, iterations=1)
    benchmark.extra_info["times_us"] = dict(zip(LIMITS, times))
