"""A1: the shared-overflow group layout vs a fragmented append area.

§3.2 argues that appending inserted vectors at the tail of a global area
scatters a cluster's fresh records across memory, so reading a cluster
back requires one round trip per fragment, whereas the group layout
serves cluster + overflow in a single contiguous READ.

The ablation inserts records into one group and compares reading the
cluster back three ways, using the same cost model:

* d-HNSW layout: one READ of the contiguous extent, every slot of the
  shared area included;
* fragmented layout: one READ for the blob plus one READ per record
  (what a global append area degenerates to);
* d-HNSW layout as served: the fetcher's tail-bounded ranges
  (``cluster_read_ranges``) once its hint is warm — still one round trip,
  without the empty slots.
"""

from __future__ import annotations

from repro.core import Scheme
from repro.layout.group_layout import cluster_read_extent
from repro.layout.serializer import overflow_record_size
from repro.rdma import QueuePair, SimClock
from repro.serving.executor import PlanExecution

from .conftest import BenchWorld, emit_table

NUM_INSERTS = 32


def test_ablation_contiguous_vs_fragmented(sift_world, benchmark):
    # A private deployment: inserted into the session-shared world, these
    # records would ride along in every table generated after this one.
    world = BenchWorld(sift_world.dataset, sift_world.config)
    client = world.client(Scheme.DHNSW, contended=False)
    probe = world.dataset.queries[0]
    cluster_id = client.meta.classify(probe)
    for i in range(NUM_INSERTS):
        client.insert(probe + 1e-4 * i, 900_000 + i)

    layout = world.deployment.layout
    metadata = client.metadata
    offset, length = cluster_read_extent(metadata, cluster_id)
    entry = metadata.clusters[cluster_id]
    record = overflow_record_size(metadata.dim)

    # Contiguous: one READ covering blob + overflow.
    contiguous_qp = QueuePair(layout.memory_node, SimClock(),
                              world.cost_model)
    contiguous_qp.connect()
    contiguous_qp.read(layout.rkey, layout.addr(offset), length)
    contiguous = contiguous_qp.stats

    # Fragmented: blob READ + one READ per scattered record.
    fragmented_qp = QueuePair(layout.memory_node, SimClock(),
                              world.cost_model)
    fragmented_qp.connect()
    fragmented_qp.read(layout.rkey, layout.addr(entry.blob_offset),
                            entry.blob_length)
    group = metadata.groups[entry.group_id]
    for slot in range(NUM_INSERTS):
        fragmented_qp.read(
            layout.rkey,
            layout.addr(group.overflow_offset + 8 + slot * record), record)
    fragmented = fragmented_qp.stats

    # As served: a reader that has seen the group's tail once reads the
    # live prefix only.
    reader = world.client(Scheme.DHNSW, contended=False)
    fetcher = reader.engine.fetcher

    def fetch():
        token, extents = fetcher.issue_async([cluster_id], True)
        return fetcher.admit(extents, fetcher.poll(token),
                             PlanExecution())[cluster_id]

    fetch()
    before = reader.node.stats.snapshot()
    entry = fetch()
    live = reader.node.stats.delta(before)
    assert entry.overflow_tail == NUM_INSERTS

    header = (f"{'layout':<22} {'round_trips':>12} {'bytes_read':>11} "
              f"{'network_us':>11}")
    rows = [
        f"{'shared-overflow':<22} {contiguous.round_trips:>12} "
        f"{contiguous.bytes_read:>11} {contiguous.network_time_us:>11.2f}",
        f"{'fragmented-append':<22} {fragmented.round_trips:>12} "
        f"{fragmented.bytes_read:>11} {fragmented.network_time_us:>11.2f}",
        f"{'live-prefix, warm hint':<22} {live.round_trips:>12} "
        f"{live.bytes_read:>11} {live.network_time_us:>11.2f}",
    ]
    emit_table("ablation_layout", header, rows)

    assert contiguous.round_trips == 1
    assert fragmented.round_trips == 1 + NUM_INSERTS
    assert contiguous.network_time_us < fragmented.network_time_us
    assert live.round_trips == 1
    assert live.bytes_read < contiguous.bytes_read

    benchmark.pedantic(
        lambda: contiguous_qp.read(layout.rkey, layout.addr(offset),
                                        length),
        rounds=1, iterations=1)
    benchmark.extra_info["round_trip_savings"] = fragmented.round_trips
