"""A fetch reads what is live: tail-bounded ranges plus, when they ran
short, one delta ring — never the empty slots, never a different answer.

The oracle is the whole-extent READ the read path used to post
(``cluster_read_extent``, decoded test-side): whatever hint and slack a
fetch was sized from, the entry it admits must equal the oracle's record
for record and tail for tail.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Deployment
from repro.core import DHnswConfig
from repro.core.client import DHnswClient
from repro.datasets.synthetic import make_clustered
from repro.errors import StaleReadError
from repro.layout.group_layout import (
    OVERFLOW_SEALED,
    OVERFLOW_TAIL_BYTES,
    cluster_read_extent,
    cluster_read_ranges,
    live_overflow_count,
    overflow_delta_ranges,
    overflow_slot_offset,
    pack_overflow_tail,
    unpack_overflow_area,
)
from repro.layout.serializer import (
    OverflowRecord,
    overflow_record_size,
    pack_overflow_records,
    serialize_cluster,
)
from repro.core.merge import TopKMerger
from repro.core.query_planner import plan_batch
from repro.rdma import CostModel
from repro.serving import fetcher as fetcher_module
from repro.serving.fetcher import TAIL_SLACK_SLOTS
from tests.serving.helpers import fetch, run_plan

DIM = 8
#: A WQE that costs nothing is never worth a hole: second members always
#: post two ranges.  The default model reads every hole this small through.
SPLIT = CostModel(pcie_us_per_wqe=0.0)
MERGE = CostModel()


def corpus(count: int, dim: int) -> np.ndarray:
    return make_clustered(count, dim, num_clusters=3, cluster_std=0.05,
                          rng=np.random.default_rng(11))


@functools.lru_cache(maxsize=None)
def tiny_deployment(capacity: int) -> Deployment:
    """Three clusters: group 0 holds members 0 and 1, cluster 2 is
    unpaired.  Its overflow areas are overwritten by every example."""
    config = DHnswConfig(num_representatives=3, nprobe=2, ef_meta=8,
                         cache_fraction=1.0,
                         overflow_capacity_records=capacity, seed=3)
    return Deployment(corpus(90, DIM), config, cost_model=MERGE)


def make_client(deployment, cost_model=None, name="reader", **overrides):
    return DHnswClient(deployment.layout, deployment.meta,
                       deployment.config.replace(**overrides),
                       cost_model=cost_model or deployment.cost_model,
                       name=name)


def write_area(layout, group, raw_tail: int, records, poison) -> None:
    """Overwrite a group's area: tail word, ``records``, then ``poison``
    in every slot past them."""
    node = layout.memory_node
    node.write(layout.rkey, layout.addr(group.overflow_offset),
               pack_overflow_tail(raw_tail))
    slots = list(records) + [poison] * (group.capacity_records - len(records))
    if slots:
        node.write(layout.rkey, layout.addr(overflow_slot_offset(
            group.overflow_offset, DIM, 0)), pack_overflow_records(slots))


def oracle_entry(layout, metadata, cid):
    """``(tail, records, blob bytes)`` decoded from the whole extent."""
    offset, length = cluster_read_extent(metadata, cid)
    payload = layout.memory_node.read(layout.rkey, layout.addr(offset),
                                      length)
    cluster = metadata.clusters[cid]
    group = metadata.groups[cluster.group_id]
    area_start = group.overflow_offset - offset
    tail = live_overflow_count(payload, group.capacity_records, "oracle",
                               offset=area_start)
    records = unpack_overflow_area(payload[area_start:], metadata.dim, tail,
                                   cid)
    blob_start = cluster.blob_offset - offset
    return tail, records, bytes(
        payload[blob_start:blob_start + cluster.blob_length])


def plain(records):
    """Records as comparable values (the vector field is an array)."""
    return [(r.global_id, r.cluster_id, r.tombstone, r.vector.tobytes())
            for r in records]


@contextlib.contextmanager
def slack(slots: int):
    """Run the body with the fetcher's slack set to ``slots``."""
    fetcher_module.TAIL_SLACK_SLOTS = slots
    try:
        yield
    finally:
        fetcher_module.TAIL_SLACK_SLOTS = TAIL_SLACK_SLOTS


# ---------------------------------------------------------------------------
# Equivalence against the whole-extent oracle
# ---------------------------------------------------------------------------
@st.composite
def areas(draw):
    capacity = draw(st.sampled_from((0, 1, 3, 9)))
    tail = draw(st.integers(0, capacity))
    # A racing reservation past the end leaves the raw word above the
    # capacity until it rolls back; readers clamp it.
    over = draw(st.integers(0, 3)) if tail == capacity else 0
    return {
        "capacity": capacity, "tail": tail, "raw_tail": tail + over,
        "cid": draw(st.integers(0, 2)),
        "owners": draw(st.lists(st.booleans(), min_size=tail,
                                max_size=tail)),
        "tombstones": draw(st.lists(st.booleans(), min_size=tail,
                                    max_size=tail)),
        "hint": draw(st.integers(0, capacity)),
        "slack": draw(st.integers(0, 4)),
        "cost_model": draw(st.sampled_from((SPLIT, MERGE))),
    }


@settings(max_examples=120, deadline=None)
@given(case=areas())
def test_entry_equals_whole_extent_oracle(case):
    deployment = tiny_deployment(case["capacity"])
    layout, metadata = deployment.layout, deployment.layout.metadata
    cid = case["cid"]
    gid = metadata.clusters[cid].group_id
    group = metadata.groups[gid]
    members = [c for c, entry in enumerate(metadata.clusters)
               if entry.group_id == gid]
    peer = members[-1 - members.index(cid)]   # itself when unpaired
    vector = np.arange(DIM, dtype=np.float32)
    records = [OverflowRecord(1000 + slot, cid if mine else peer,
                              vector + slot, tombstone)
               for slot, (mine, tombstone) in enumerate(
                   zip(case["owners"], case["tombstones"]))]
    # A well-formed record of this very cluster: parsing a slot past the
    # tail would put it in the entry.
    poison = OverflowRecord(-1, cid, vector)
    write_area(layout, group, case["raw_tail"], records, poison)

    with slack(case["slack"]), \
            make_client(deployment, case["cost_model"]) as client:
        client.engine.decoder.note_tail(gid, case["hint"])
        merge = client.engine.fetcher.merge_hole_bytes()
        ranges = cluster_read_ranges(
            metadata, cid, case["hint"] + case["slack"], merge)
        before = client.node.stats.snapshot()
        entry = fetch(client, [cid])[cid]
        delta = client.node.stats.delta(before)

        tail, wanted, blob = oracle_entry(layout, metadata, cid)
        assert tail == case["tail"]
        assert entry.overflow_tail == tail
        assert plain(entry.overflow) == plain(wanted)
        assert serialize_cluster(entry.index, cid) == blob
        assert client.engine.decoder.tail_seen(gid) == tail

        whole = ranges == (cluster_read_extent(metadata, cid),)
        slots_read = (case["capacity"] if whole
                      else min(case["capacity"],
                               case["hint"] + case["slack"]))
        fetched = sum(length for _, length in ranges)
        short = tail > slots_read
        assert delta.round_trips == 1 + short
        assert delta.bytes_read == fetched + (sum(
            length for _, length in overflow_delta_ranges(
                group, DIM, slots_read, tail, merge)) if short else 0)
        assert entry.nbytes == fetched + (
            max(0, tail - slots_read) * overflow_record_size(DIM))
        assert client.cache.cached_bytes == entry.nbytes


@pytest.mark.parametrize("cid", [0, 1, 2])
@pytest.mark.parametrize("cost_model", [SPLIT, MERGE], ids=["split", "merge"])
def test_sealed_word_is_a_stale_read(cid, cost_model):
    deployment = tiny_deployment(3)
    layout, metadata = deployment.layout, deployment.layout.metadata
    group = metadata.groups[metadata.clusters[cid].group_id]
    poison = OverflowRecord(-1, cid, np.zeros(DIM, dtype=np.float32))
    write_area(layout, group, OVERFLOW_SEALED + 2, [poison] * 2, poison)
    with make_client(deployment, cost_model) as client:
        with pytest.raises(StaleReadError, match="sealed"):
            fetch(client, [cid])
        assert client.cache.peek(cid) is None


@pytest.mark.parametrize("cid", [0, 1, 2])
def test_area_sealed_before_the_delta_ring_is_a_stale_read(cid):
    """The tail word rides in the delta ring: records of an area a cutover
    retired after the extent READ are never grafted."""
    deployment = tiny_deployment(3)
    layout, metadata = deployment.layout, deployment.layout.metadata
    group = metadata.groups[metadata.clusters[cid].group_id]
    record = OverflowRecord(7, cid, np.ones(DIM, dtype=np.float32))
    write_area(layout, group, 3, [record] * 3, record)
    with slack(1), make_client(deployment, SPLIT) as client:
        # The extent READ is posted and polled; the delta ring is the
        # fetch's one blocking READ.
        read_batch = client.transport.read_batch
        rings = []

        def seal_before_the_delta_ring(descriptors, doorbell=True):
            layout.memory_node.fetch_and_add(
                layout.rkey, layout.addr(group.overflow_offset),
                OVERFLOW_SEALED)
            rings.append(len(descriptors))
            return read_batch(descriptors, doorbell=doorbell)

        client.transport.read_batch = seal_before_the_delta_ring
        with pytest.raises(StaleReadError, match="sealed"):
            fetch(client, [cid])
        assert len(rings) == 1
        assert client.cache.peek(cid) is None


# ---------------------------------------------------------------------------
# Scenarios on a built deployment
# ---------------------------------------------------------------------------
SCENARIO_DIM = 24
SCENARIO_CAPACITY = 64


@pytest.fixture()
def deployment():
    """Six clusters in three groups, 64-slot areas: the hole a second
    member leaves unread is far wider than one more WQE is worth."""
    config = DHnswConfig(num_representatives=6, nprobe=2, ef_meta=16,
                         cache_fraction=1.0,
                         overflow_capacity_records=SCENARIO_CAPACITY, seed=5)
    return Deployment(corpus(360, SCENARIO_DIM), config, cost_model=MERGE)


def rings_and_bytes(client, action):
    before = client.node.stats.snapshot()
    result = action()
    delta = client.node.stats.delta(before)
    return delta.round_trips, delta.bytes_read, result


def insert_near(writer, probe, count, first_id, step=0):
    """Insert ``count`` points at steps ``step + 1 ...`` from ``probe``."""
    for i in range(count):
        writer.insert(probe + 1e-4 * (step + i + 1), first_id + i)


def test_never_written_layout_moves_blob_word_and_slack(deployment):
    record = overflow_record_size(SCENARIO_DIM)
    with make_client(deployment) as client:
        metadata = client.metadata
        for cid, cluster in enumerate(metadata.clusters):
            group = metadata.groups[cluster.group_id]
            # A first member's range runs through the tail word's
            # alignment pad (< 8 B); a second member's has none.
            pad = max(0, group.overflow_offset
                      - cluster.blob_offset - cluster.blob_length)
            rings, nbytes, loaded = rings_and_bytes(
                client, lambda: fetch(client, [cid]))
            assert rings == 1
            assert nbytes == (cluster.blob_length + pad + OVERFLOW_TAIL_BYTES
                              + TAIL_SLACK_SLOTS * record)
            assert loaded[cid].nbytes == nbytes
            assert nbytes < cluster_read_extent(metadata, cid)[1] - 50 * record


def test_cold_hint_costs_a_delta_ring_once(deployment):
    probe = corpus(360, SCENARIO_DIM)[0]
    with make_client(deployment, name="writer") as writer, \
            make_client(deployment) as reader:
        cid = writer.meta.classify(probe)
        insert_near(writer, probe, TAIL_SLACK_SLOTS + 3, 50_000)
        first, _, loaded = rings_and_bytes(reader,
                                           lambda: fetch(reader, [cid]))
        assert first == 2
        assert loaded[cid].overflow_tail == TAIL_SLACK_SLOTS + 3
        reader.cache.invalidate(cid)
        again, _, reloaded = rings_and_bytes(reader,
                                             lambda: fetch(reader, [cid]))
        assert again == 1
        assert plain(reloaded[cid].overflow) == plain(loaded[cid].overflow)


def test_peer_insert_inside_the_slack_is_one_ring(deployment):
    probe = corpus(360, SCENARIO_DIM)[0]
    with make_client(deployment, name="writer") as writer, \
            make_client(deployment) as reader:
        cid = writer.meta.classify(probe)
        insert_near(writer, probe, 6, 51_000)
        fetch(reader, [cid])                      # the hint is warm: 6
        insert_near(writer, probe, TAIL_SLACK_SLOTS, 52_000, step=6)
        reader.cache.invalidate(cid)
        rings, _, loaded = rings_and_bytes(reader,
                                           lambda: fetch(reader, [cid]))
        assert rings == 1
        assert loaded[cid].overflow_tail == 6 + TAIL_SLACK_SLOTS
        newest = 52_000 + TAIL_SLACK_SLOTS - 1
        target = probe + 1e-4 * (6 + TAIL_SLACK_SLOTS)
        assert reader.search(target, 1, ef_search=32).ids[0] == newest


def test_short_clusters_of_a_wave_share_one_delta_ring(deployment):
    vectors = corpus(360, SCENARIO_DIM)
    with make_client(deployment, name="writer") as writer, \
            make_client(deployment) as reader:
        # One probe per group: three clusters in three groups run short.
        probes = {}
        for vector in vectors:
            cid = writer.meta.classify(vector)
            probes.setdefault(writer.metadata.clusters[cid].group_id,
                              (cid, vector))
        assert len(probes) == 3
        for gid, (cid, vector) in probes.items():
            insert_near(writer, vector, TAIL_SLACK_SLOTS + 2 + gid,
                        60_000 + 100 * gid)
        wave = [cid for cid, _ in probes.values()]
        rings, _, loaded = rings_and_bytes(reader,
                                           lambda: fetch(reader, wave))
        assert rings == 2
        for gid, (cid, _) in probes.items():
            assert loaded[cid].overflow_tail == TAIL_SLACK_SLOTS + 2 + gid
            assert len(loaded[cid].overflow) == TAIL_SLACK_SLOTS + 2 + gid


def test_own_faa_feeds_the_hint(deployment):
    """Read-after-own-insert is one ring even on a first fetch."""
    probe = corpus(360, SCENARIO_DIM)[0]
    with make_client(deployment) as client:
        cid = client.meta.classify(probe)
        insert_near(client, probe, TAIL_SLACK_SLOTS + 5, 53_000)
        rings, _, loaded = rings_and_bytes(client,
                                           lambda: fetch(client, [cid]))
        assert rings == 1
        assert loaded[cid].overflow_tail == TAIL_SLACK_SLOTS + 5


def test_cutover_between_extent_and_delta_reads_is_retried(deployment):
    """A peer's cutover lands after the extent READ and before the delta
    ring: the batch re-pins and re-plans once, and serves the relocated
    group — nothing from the retired area."""
    probe = corpus(360, SCENARIO_DIM)[0]
    with make_client(deployment, name="writer") as writer, \
            make_client(deployment) as reader:
        cid = writer.meta.classify(probe)
        gid = writer.metadata.clusters[cid].group_id
        insert_near(writer, probe, TAIL_SLACK_SLOTS + 3, 54_000)
        read_batch = reader.transport.read_batch
        top_up = reader.engine.fetcher.top_up
        armed = [True]

        def cut_over_before_the_delta_ring(entries, trace=None):
            reader.transport.read_batch = cut_over_then_read
            try:
                return top_up(entries, trace)
            finally:
                reader.transport.read_batch = read_batch

        def cut_over_then_read(descriptors, doorbell=True):
            if armed[0]:
                armed[0] = False
                assert writer.mutation.rebuild_group(gid)
            return read_batch(descriptors, doorbell=doorbell)

        reader.engine.fetcher.top_up = cut_over_before_the_delta_ring
        attempts = []
        once = reader.engine._search_batch_once
        reader.engine._search_batch_once = (
            lambda *args, **kwargs: attempts.append(1)
            or once(*args, **kwargs))
        target = probe + 1e-4 * (TAIL_SLACK_SLOTS + 3)
        result = reader.search_batch(target[None, :], 1, ef_search=32)
        assert not armed[0] and len(attempts) == 2
        assert result.results[0].ids[0] == 54_000 + TAIL_SLACK_SLOTS + 2
        entry = reader.cache.peek(cid)
        assert entry.extent_epoch[0] == reader.metadata.groups[gid].version
        assert entry.overflow_tail == 0          # all merged into the blob


def search_hits(client, cluster_ids, query):
    """One batch of ``query`` probing ``cluster_ids``, every one a hit:
    the loop's READ of their tail words, then a delta ring for the ones
    a peer's insert left behind, while the hits stay pinned."""
    plan = plan_batch([list(cluster_ids)], client.cache,
                      client.cache.capacity_clusters)
    assert plan.waves == ()
    return run_plan(client, plan, query[None, :], TopKMerger(1, 10), 10, 20)


def test_hit_wave_validation_fetches_each_stale_group_once(deployment):
    """Four cached clusters in three groups (both members of one), a
    peer's insert in each group: an all-hit batch costs the tails ring
    plus one delta ring, and every distinct delta crosses the wire
    once."""
    vectors = corpus(360, SCENARIO_DIM)
    record = overflow_record_size(SCENARIO_DIM)
    with make_client(deployment, name="writer") as writer, \
            make_client(deployment) as reader:
        metadata = reader.metadata
        cached = [0, 1] + [
            next(cid for cid, cluster in enumerate(metadata.clusters)
                 if cluster.group_id == gid) for gid in (1, 2)]
        assert metadata.clusters[0].group_id == metadata.clusters[1].group_id
        fetch(reader, cached)
        inserted = {}
        for vector in vectors:
            gid = metadata.clusters[writer.meta.classify(vector)].group_id
            if gid not in inserted:
                inserted[gid] = 1 + gid            # 1, 2 and 3 records
                insert_near(writer, vector, inserted[gid], 70_000 + 100 * gid)
        assert len(inserted) == 3
        sizes = {cid: reader.cache.peek(cid).nbytes for cid in cached}
        dram = reader.dram_used_bytes

        rings, nbytes, _ = rings_and_bytes(
            reader, lambda: search_hits(reader, cached, vectors[0]))

        assert rings == 2
        deltas = sum(OVERFLOW_TAIL_BYTES + count * record
                     for count in inserted.values())
        assert nbytes == 3 * OVERFLOW_TAIL_BYTES + deltas
        grown = 0
        for cid in cached:
            entry = reader.cache.peek(cid)
            count = inserted[metadata.clusters[cid].group_id]
            assert entry.overflow_tail == count
            assert entry.nbytes == sizes[cid] + count * record
            grown += count * record
        # What the grafts hold is counted, in the cache's one total.
        assert reader.dram_used_bytes == dram + grown
        assert reader.cache.cached_bytes == sum(
            reader.cache.peek(cid).nbytes for cid in cached)
        # Both members of group 0 saw its records; each kept its own.
        assert (len(reader.cache.peek(0).overflow)
                + len(reader.cache.peek(1).overflow)) == inserted[0]
        # Nothing is stale now: the next batch is the tails ring only.
        assert rings_and_bytes(
            reader, lambda: search_hits(reader, cached, vectors[0])
        )[:2] == (1, 3 * OVERFLOW_TAIL_BYTES)


def test_validation_at_the_byte_cap_evicts_no_hit(deployment):
    """A peer's records grafted onto a hit held at the byte cap would
    have the grown hit evict its sibling, which the batch has yet to
    search: without look-ahead nothing is searched before the delta ring
    lands, and the loop pins every hit until its answer is final, so
    both stay, over the cap until a later put."""
    probe = corpus(360, SCENARIO_DIM)[0]
    record = overflow_record_size(SCENARIO_DIM)
    with make_client(deployment, name="writer") as writer, \
            make_client(deployment, pipeline_waves=False) as reader:
        clusters = reader.metadata.clusters
        grown = reader.meta.classify(probe)
        sibling = next(cid for cid, cluster in enumerate(clusters)
                       if cluster.group_id != clusters[grown].group_id)
        hits = fetch(reader, [sibling, grown])
        cache = reader.cache
        cache.capacity_bytes = cache.cached_bytes
        insert_near(writer, probe, 2, 56_000)
        search_hits(reader, [sibling, grown], probe)
        assert hits[grown].overflow_tail == 2
        assert cache.peek(sibling) is hits[sibling]
        assert cache.peek(grown) is hits[grown]
        assert cache.cached_bytes == cache.capacity_bytes + 2 * record


def test_look_ahead_releases_a_final_hit_to_the_byte_cap(deployment):
    """Under look-ahead both hits are searched while their tail words fly;
    the sibling's answer is final once its word lands, and the loop
    unpins it there.  The grown hit's graft, which lands later, then
    evicts it to stay under the cap — after its answer is merged: the
    batch answers as a fresh look-ahead-off reader does."""
    probe = corpus(360, SCENARIO_DIM)[0]
    with make_client(deployment, name="writer") as writer, \
            make_client(deployment, pipeline_waves=True) as reader, \
            make_client(deployment, pipeline_waves=False,
                        name="fresh") as fresh:
        clusters = reader.metadata.clusters
        grown = reader.meta.classify(probe)
        sibling = next(cid for cid, cluster in enumerate(clusters)
                       if cluster.group_id != clusters[grown].group_id)
        hits = fetch(reader, [sibling, grown])
        cache = reader.cache
        cache.capacity_bytes = cache.cached_bytes
        insert_near(writer, probe, 2, 56_000)
        answers = []
        for client in (reader, fresh):
            merger = TopKMerger(1, 10)
            plan = plan_batch([[sibling, grown]], client.cache,
                              client.cache.capacity_clusters)
            run_plan(client, plan, probe[None, :], merger, 10, 20)
            answers.append(merger.top(0))
        assert cache.peek(grown) is hits[grown]
        assert cache.peek(sibling) is None
        assert cache.cached_bytes <= cache.capacity_bytes
    np.testing.assert_array_equal(answers[0][0], answers[1][0])
    np.testing.assert_array_equal(answers[0][1], answers[1][1])
    assert 56_000 in answers[0][0]


def test_own_write_grows_the_cached_entry_it_patches(deployment):
    probe = corpus(360, SCENARIO_DIM)[0]
    record = overflow_record_size(SCENARIO_DIM)
    with make_client(deployment) as client:
        cid = client.meta.classify(probe)
        entry = fetch(client, [cid])[cid]
        size, dram = entry.nbytes, client.dram_used_bytes
        insert_near(client, probe, 2, 55_000)
        assert entry.overflow_tail == 2 and len(entry.overflow) == 2
        assert entry.nbytes == size + 2 * record
        assert client.dram_used_bytes == dram + 2 * record
        assert client.cache.cached_bytes == entry.nbytes
