"""Group planning geometry, contiguous extents and the ranges a fetch
posts of them."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LayoutError
from repro.layout.group_layout import (
    OVERFLOW_TAIL_BYTES,
    cluster_read_extent,
    cluster_read_ranges,
    group_extent,
    overflow_area_size,
    overflow_delta_ranges,
    overflow_slot_offset,
    place_group,
    plan_groups,
)
from repro.layout.metadata import GlobalMetadata
from repro.layout.serializer import overflow_record_size


def plan_and_metadata(sizes, dim=4, capacity=8, start=4096):
    # Sizes stream through an iterator: planning must not need the list.
    plans, clusters, groups = plan_groups(
        iter(enumerate(sizes)), dim, capacity, start)
    metadata = GlobalMetadata(version=1, dim=dim,
                              overflow_capacity_records=capacity,
                              clusters=clusters, groups=groups)
    return plans, metadata


class TestOverflowAreaSize:
    def test_formula(self):
        assert overflow_area_size(4, 10) == (OVERFLOW_TAIL_BYTES
                                             + 10 * overflow_record_size(4))

    def test_zero_capacity(self):
        assert overflow_area_size(4, 0) == OVERFLOW_TAIL_BYTES

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            overflow_area_size(4, -1)


class TestPlanGroups:
    def test_pairing_adjacent_clusters(self):
        plans, metadata = plan_and_metadata([100, 200, 300, 400])
        assert len(plans) == 2
        assert plans[0].first_cluster_id == 0
        assert plans[0].second_cluster_id == 1
        assert plans[1].first_cluster_id == 2
        assert metadata.clusters[0].group_id == 0
        assert metadata.clusters[3].group_id == 1

    def test_odd_cluster_gets_own_group(self):
        plans, metadata = plan_and_metadata([100, 200, 300])
        assert len(plans) == 2
        assert plans[1].second_cluster_id is None
        assert metadata.clusters[2].group_id == 1

    def test_overflow_sits_between_pair(self):
        plans, metadata = plan_and_metadata([100, 200])
        plan = plans[0]
        # Just past the first blob, rounded up for atomic alignment.
        assert plan.first_offset + 100 <= plan.overflow_offset < (
            plan.first_offset + 108)
        assert plan.overflow_offset % 8 == 0
        assert plan.second_offset == (plan.overflow_offset
                                      + plan.overflow_area_bytes)

    def test_overflow_tail_always_aligned(self):
        _, metadata = plan_and_metadata([3, 17, 131, 7, 29], start=4096)
        for group in metadata.groups:
            assert group.overflow_offset % 8 == 0

    def test_layout_starts_at_start_offset(self):
        plans, _ = plan_and_metadata([50, 50], start=8192)
        assert plans[0].base_offset == 8192

    def test_groups_do_not_overlap(self):
        plans, _ = plan_and_metadata([10, 600, 30, 70, 999])
        for before, after in zip(plans, plans[1:]):
            assert before.end_offset <= after.base_offset

    def test_nondense_ids_rejected(self):
        with pytest.raises(LayoutError, match="dense"):
            plan_groups([(0, 1), (2, 1)], 4, 8, 0)

    @settings(max_examples=30, deadline=None)
    @given(sizes=st.lists(st.integers(min_value=1, max_value=5000),
                          min_size=1, max_size=15),
           capacity=st.integers(min_value=0, max_value=32))
    def test_every_cluster_placed_without_overlap(self, sizes, capacity):
        plans, metadata = plan_and_metadata(sizes, capacity=capacity)
        intervals = []
        for cid, entry in enumerate(metadata.clusters):
            assert entry.blob_length == sizes[cid]
            intervals.append((entry.blob_offset,
                              entry.blob_offset + entry.blob_length))
        for group in metadata.groups:
            area = overflow_area_size(4, capacity)
            intervals.append((group.overflow_offset,
                              group.overflow_offset + area))
        intervals.sort()
        for (_, end), (start, _) in zip(intervals, intervals[1:]):
            assert end <= start


class TestReadExtent:
    def test_first_cluster_extent_covers_blob_and_overflow(self):
        plans, metadata = plan_and_metadata([100, 200])
        offset, length = cluster_read_extent(metadata, 0)
        plan = plans[0]
        assert offset == plan.first_offset
        assert offset + length == plan.overflow_offset + plan.overflow_area_bytes

    def test_second_cluster_extent_covers_overflow_and_blob(self):
        plans, metadata = plan_and_metadata([100, 200])
        offset, length = cluster_read_extent(metadata, 1)
        plan = plans[0]
        assert offset == plan.overflow_offset
        assert offset + length == plan.end_offset

    def test_lone_cluster_extent(self):
        plans, metadata = plan_and_metadata([100, 200, 300])
        offset, length = cluster_read_extent(metadata, 2)
        assert offset == plans[1].first_offset
        assert offset + length == plans[1].end_offset

    def test_out_of_range_cluster(self):
        _, metadata = plan_and_metadata([100])
        with pytest.raises(LayoutError, match="out of range"):
            cluster_read_extent(metadata, 5)

    @settings(max_examples=30, deadline=None)
    @given(sizes=st.lists(st.integers(min_value=1, max_value=2000),
                          min_size=1, max_size=12))
    def test_extent_always_contains_blob_and_overflow(self, sizes):
        _, metadata = plan_and_metadata(sizes)
        for cid, entry in enumerate(metadata.clusters):
            offset, length = cluster_read_extent(metadata, cid)
            group = metadata.groups[entry.group_id]
            area = overflow_area_size(metadata.dim, group.capacity_records)
            assert offset <= entry.blob_offset
            assert entry.blob_offset + entry.blob_length <= offset + length
            assert offset <= group.overflow_offset
            assert group.overflow_offset + area <= offset + length


class TestGroupSpanAndPlacement:
    @settings(max_examples=30, deadline=None)
    @given(sizes=st.lists(st.integers(min_value=1, max_value=2000),
                          min_size=1, max_size=9),
           start=st.integers(min_value=4096, max_value=4111))
    def test_span_membership_and_placement_agree_with_the_plan(self, sizes,
                                                               start):
        """What a rebuild asks of the layout — who is in the group, where
        it spans, where a relocated copy's parts go — is what the offline
        plan says, at any (unaligned) base."""
        plans, metadata = plan_and_metadata(sizes, start=start)
        for plan in plans:
            members = metadata.group_members(plan.group_id)
            assert members == [cid for cid in (plan.first_cluster_id,
                                               plan.second_cluster_id)
                               if cid is not None]
            assert group_extent(metadata, plan.group_id) == (
                plan.base_offset, plan.end_offset - plan.base_offset)
            blobs = [(cid, metadata.clusters[cid].blob_length)
                     for cid in members]
            assert place_group(plan.group_id, plan.base_offset, blobs[0],
                               blobs[1] if len(blobs) > 1 else None,
                               metadata.dim, plan.capacity_records) == plan
            assert 0 <= plan.overflow_offset - (plan.first_offset
                                                + plan.first_nbytes) < 8


def covered(ranges, first, end):
    return any(offset <= first and end <= offset + length
               for offset, length in ranges)


class TestReadRanges:
    """The *read* invariant: at most two ranges inside the member's
    extent, covering the blob, the word and every slot below ``slots``."""

    def test_first_member_reads_a_prefix_of_its_extent(self):
        plans, metadata = plan_and_metadata([100, 200])
        (offset, length), = cluster_read_ranges(metadata, 0, 3)
        assert offset == plans[0].first_offset
        assert offset + length == overflow_slot_offset(
            plans[0].overflow_offset, 4, 3)

    def test_second_member_reads_prefix_and_blob_as_two_ranges(self):
        plans, metadata = plan_and_metadata([100, 200])
        prefix, blob = cluster_read_ranges(metadata, 1, 3)
        assert prefix == (plans[0].overflow_offset,
                          OVERFLOW_TAIL_BYTES + 3 * overflow_record_size(4))
        assert blob == (plans[0].second_offset, 200)

    def test_unpaired_member_reads_a_prefix(self):
        plans, metadata = plan_and_metadata([100, 200, 300])
        (offset, length), = cluster_read_ranges(metadata, 2, 0)
        assert offset == plans[1].first_offset
        assert offset + length == (plans[1].overflow_offset
                                   + OVERFLOW_TAIL_BYTES)

    def test_narrow_hole_is_read_through(self):
        _, metadata = plan_and_metadata([100, 200])
        record = overflow_record_size(4)
        # Five empty slots lie between the prefix and the second blob.
        assert len(cluster_read_ranges(metadata, 1, 3, 5 * record - 1)) == 2
        assert cluster_read_ranges(metadata, 1, 3, 5 * record) == (
            cluster_read_extent(metadata, 1),)

    @pytest.mark.parametrize("cid", [0, 1, 2])
    def test_slots_at_or_past_capacity_read_the_whole_extent(self, cid):
        _, metadata = plan_and_metadata([100, 200, 300])
        for slots in (8, 9, 1000):
            assert cluster_read_ranges(metadata, cid, slots) == (
                cluster_read_extent(metadata, cid),)

    def test_bad_arguments_rejected(self):
        _, metadata = plan_and_metadata([100])
        with pytest.raises(ValueError, match="slots"):
            cluster_read_ranges(metadata, 0, -1)
        with pytest.raises(LayoutError, match="out of range"):
            cluster_read_ranges(metadata, 5, 0)

    @settings(max_examples=50, deadline=None)
    @given(sizes=st.lists(st.integers(min_value=1, max_value=2000),
                          min_size=1, max_size=7),
           capacity=st.integers(min_value=0, max_value=12),
           slots=st.integers(min_value=0, max_value=16),
           merge=st.integers(min_value=0, max_value=400))
    def test_invariant(self, sizes, capacity, slots, merge):
        _, metadata = plan_and_metadata(sizes, capacity=capacity)
        for cid, entry in enumerate(metadata.clusters):
            ranges = cluster_read_ranges(metadata, cid, slots, merge)
            start, length = cluster_read_extent(metadata, cid)
            group = metadata.groups[entry.group_id]
            assert 1 <= len(ranges) <= 2
            assert all(start <= offset and offset + nbytes <= start + length
                       for offset, nbytes in ranges)
            assert covered(ranges, entry.blob_offset,
                           entry.blob_offset + entry.blob_length)
            assert covered(ranges, group.overflow_offset, overflow_slot_offset(
                group.overflow_offset, 4, min(slots, capacity)))
            # Never more than the slots asked for, but for a merged hole.
            if sum(nbytes for _, nbytes in ranges) > (
                    entry.blob_length + 7 + OVERFLOW_TAIL_BYTES
                    + min(slots, capacity) * overflow_record_size(4)):
                assert len(ranges) == 1 and merge > 0


class TestDeltaRanges:
    def test_word_then_records(self):
        plans, metadata = plan_and_metadata([100, 200])
        group = metadata.groups[0]
        record = overflow_record_size(4)
        word, records = overflow_delta_ranges(group, 4, 3, 5)
        assert word == (group.overflow_offset, OVERFLOW_TAIL_BYTES)
        assert records == (overflow_slot_offset(group.overflow_offset, 4, 3),
                           2 * record)

    def test_records_next_to_the_word_share_its_range(self):
        _, metadata = plan_and_metadata([100, 200])
        group = metadata.groups[0]
        record = overflow_record_size(4)
        assert overflow_delta_ranges(group, 4, 0, 2) == (
            (group.overflow_offset, OVERFLOW_TAIL_BYTES + 2 * record),)
        # ... as do records behind a hole cheaper than one more WQE.
        assert overflow_delta_ranges(group, 4, 3, 5, 3 * record) == (
            (group.overflow_offset, OVERFLOW_TAIL_BYTES + 5 * record),)

    @pytest.mark.parametrize("start,tail", [(-1, 2), (2, 2), (3, 2), (0, 9)])
    def test_empty_or_out_of_area_delta_rejected(self, start, tail):
        _, metadata = plan_and_metadata([100, 200])
        with pytest.raises(ValueError, match="delta"):
            overflow_delta_ranges(metadata.groups[0], 4, start, tail)
