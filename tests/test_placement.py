"""Unit and property tests for page placement policies and the page table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.address import AddressMap
from repro.memory.page_table import PageTable
from repro.memory.placement import (
    FineGrainInterleave,
    FirstTouchPlacement,
    RoundRobinPagePlacement,
    make_placement,
)


class TestInterleave:
    def test_line_granularity(self):
        policy = FineGrainInterleave(4)
        assert [policy.partition_of_line(line) for line in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_requester_is_ignored(self):
        policy = FineGrainInterleave(4)
        assert policy.partition_of_page(7, 0) == policy.partition_of_page(7, 3)


class TestFirstTouch:
    def test_first_toucher_wins(self):
        policy = FirstTouchPlacement(4)
        assert policy.partition_of_page(10, 2) == 2
        # Later requesters see the original mapping (Figure 11 semantics).
        assert policy.partition_of_page(10, 0) == 2
        assert policy.first_touch_allocations == 1

    def test_distinct_pages_follow_their_touchers(self):
        policy = FirstTouchPlacement(4)
        for page in range(8):
            assert policy.partition_of_page(page, page % 4) == page % 4
        assert len(policy._page_map) == 8

    def test_histogram(self):
        policy = FirstTouchPlacement(2)
        policy.partition_of_page(0, 0)
        policy.partition_of_page(1, 1)
        policy.partition_of_page(2, 1)
        # Pages per partition: one on partition 0, two on partition 1.
        assert sorted(policy._page_map.values()) == [0, 1, 1]

    def test_reset_forgets(self):
        policy = FirstTouchPlacement(4)
        policy.partition_of_page(5, 3)
        policy.reset()
        assert policy.partition_of_page(5, 1) == 1


class TestRoundRobin:
    def test_allocation_order(self):
        policy = RoundRobinPagePlacement(3)
        assert policy.partition_of_page(100, 2) == 0
        assert policy.partition_of_page(200, 2) == 1
        assert policy.partition_of_page(300, 2) == 2
        assert policy.partition_of_page(400, 2) == 0
        # Stable on re-reference.
        assert policy.partition_of_page(100, 0) == 0


class TestRegistry:
    def test_make_placement(self):
        assert isinstance(make_placement("interleave", 4), FineGrainInterleave)
        assert isinstance(make_placement("first_touch", 4), FirstTouchPlacement)
        assert isinstance(make_placement("round_robin_page", 4), RoundRobinPagePlacement)

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown placement"):
            make_placement("nope", 4)

    def test_rejects_zero_partitions(self):
        with pytest.raises(ValueError, match="n_partitions"):
            FineGrainInterleave(0)


class TestPageTable:
    def test_interleave_resolution(self):
        table = PageTable(AddressMap(page_bytes=2048), FineGrainInterleave(4))
        assert table.home_partition(5, 0) == 1
        assert table.remote_resolutions == 1
        assert table.home_partition(4, 0) == 0
        assert table.local_resolutions == 1
        assert table.local_resolutions == table.remote_resolutions == 1

    def test_first_touch_keeps_whole_page_together(self):
        amap = AddressMap(page_bytes=2048)  # 16 lines/page
        table = PageTable(amap, FirstTouchPlacement(4))
        first = table.home_partition(0, 3)
        assert first == 3
        for line in range(1, 16):
            assert table.home_partition(line, 0) == 3  # same page, same home
        assert table.home_partition(16, 0) == 0  # next page, new first toucher

    def test_reset(self):
        table = PageTable(AddressMap(), FirstTouchPlacement(2))
        table.home_partition(0, 1)
        table.reset()
        assert table.local_resolutions == 0
        assert table.home_partition(0, 0) == 0


@settings(max_examples=50, deadline=None)
@given(
    touches=st.lists(
        st.tuples(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=3)),
        min_size=1,
        max_size=200,
    )
)
def test_first_touch_is_stable(touches):
    """Property: a page's partition never changes after its first touch."""
    policy = FirstTouchPlacement(4)
    seen = {}
    for page, requester in touches:
        partition = policy.partition_of_page(page, requester)
        if page in seen:
            assert partition == seen[page]
        else:
            assert partition == requester
            seen[page] = partition
    assert len(policy._page_map) == len(seen)


@settings(max_examples=50, deadline=None)
@given(pages=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=100, unique=True))
def test_round_robin_balances(pages):
    """Property: round-robin spreads unique pages within 1 of each other."""
    policy = RoundRobinPagePlacement(4)
    counts = {p: 0 for p in range(4)}
    for page in pages:
        counts[policy.partition_of_page(page, 0)] += 1
    assert max(counts.values()) - min(counts.values()) <= 1
