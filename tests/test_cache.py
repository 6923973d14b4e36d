"""Unit and property tests for the set-associative cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import CacheStats, SetAssocCache, WritePolicy

from .stubs import resident


def make_cache(lines=16, ways=4, policy=WritePolicy.WRITE_BACK):
    return SetAssocCache(
        size_bytes=lines * 128, line_bytes=128, ways=ways, write_policy=policy
    )


class TestConstruction:
    def test_geometry(self):
        cache = make_cache(lines=64, ways=4)
        assert cache.n_sets == 16
        assert cache.ways == 4
        assert cache.capacity_lines == 64

    def test_zero_capacity_always_misses(self):
        cache = SetAssocCache(size_bytes=0)
        assert not cache.enabled
        hit, writeback = cache.access(1)
        assert not hit
        assert writeback is None
        hit, _ = cache.access(1)
        assert not hit

    def test_disabled_cache_no_allocate_probe_is_bypass(self):
        """Regression: a disabled level used to count a no-allocate store
        probe as a miss, where an enabled cache counts a bypass — breaking
        the "every store is a write_hit or a bypass" law at disabled
        levels.  ``touch_store`` is the no-allocate store path."""
        cache = SetAssocCache(size_bytes=0)
        assert not cache.touch_store(5)
        assert cache.stats.bypasses == 1
        assert cache.stats.misses == 0
        assert cache.stats.write_misses == 0
        assert cache.stats.accesses == 0  # bypasses are not lookups
        # An allocating access still reports the plain miss.
        cache.access(5, is_write=True)
        assert cache.stats.misses == 1
        assert cache.stats.write_misses == 1
        assert cache.stats.bypasses == 1

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError, match="size_bytes"):
            SetAssocCache(size_bytes=-1)

    def test_rejects_bad_line_size(self):
        with pytest.raises(ValueError, match="line_bytes"):
            SetAssocCache(size_bytes=1024, line_bytes=100)

    def test_rejects_sub_line_capacity(self):
        with pytest.raises(ValueError, match="smaller than one line"):
            SetAssocCache(size_bytes=64, line_bytes=128)

    def test_clamps_associativity_to_capacity(self):
        cache = SetAssocCache(size_bytes=2 * 128, ways=16)
        assert cache.ways == 2


class TestHitMiss:
    def test_first_access_misses_second_hits(self):
        cache = make_cache()
        hit, _ = cache.access(42)
        assert not hit
        hit, _ = cache.access(42)
        assert hit
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_no_allocate_miss_does_not_install(self):
        cache = make_cache()
        assert not cache.touch_store(7)
        assert not resident(cache, 7)
        assert cache.stats.bypasses == 1


class TestLRU:
    def test_lru_eviction_order(self):
        cache = SetAssocCache(size_bytes=4 * 128, ways=4)  # 1 set, 4 ways
        for line in range(4):
            cache.access(line)
        cache.access(0)  # refresh 0 -> LRU is now 1
        cache.access(99)  # evict 1
        assert resident(cache, 0)
        assert not resident(cache, 1)
        assert resident(cache, 2)
        assert resident(cache, 99)

    def test_set_isolation(self):
        cache = SetAssocCache(size_bytes=8 * 128, ways=4)  # 2 sets
        # Fill set 0 beyond capacity; set 1 untouched.
        for line in (0, 2, 4, 6, 8):
            cache.access(line)
        cache.access(1)
        assert resident(cache, 1)
        assert not resident(cache, 0)  # evicted from set 0


class TestWriteback:
    def test_dirty_eviction_reports_writeback(self):
        cache = SetAssocCache(size_bytes=2 * 128, ways=2)  # 1 set, 2 ways
        cache.access(1, is_write=True)
        cache.access(2)
        hit, writeback = cache.access(3)
        assert not hit
        assert writeback == 1
        assert cache.stats.writebacks == 1

    def test_clean_eviction_has_no_writeback(self):
        cache = SetAssocCache(size_bytes=2 * 128, ways=2)
        cache.access(1)
        cache.access(2)
        _, writeback = cache.access(3)
        assert writeback is None

    def test_write_through_never_dirty(self):
        cache = SetAssocCache(size_bytes=2 * 128, ways=2, write_policy=WritePolicy.WRITE_THROUGH)
        cache.access(1, is_write=True)
        cache.access(2, is_write=True)
        _, writeback = cache.access(3)
        assert writeback is None
        assert cache.flush() == []

    def test_write_hit_marks_dirty(self):
        cache = SetAssocCache(size_bytes=2 * 128, ways=2)
        cache.access(5)  # clean install
        cache.access(5, is_write=True)  # dirty on hit
        assert sorted(cache.flush()) == [5]


class TestFlush:
    def test_flush_empties_and_returns_dirty(self):
        cache = make_cache()
        cache.access(1, is_write=True)
        cache.access(2)
        dirty = cache.flush()
        assert dirty == [1]
        assert cache.resident_lines() == 0
        assert cache.stats.flushes == 1
        hit, _ = cache.access(2)
        assert not hit


class TestStats:
    def test_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.hit_rate == 0.75
        assert CacheStats().hit_rate == 0.0

    def test_merge(self):
        merged = CacheStats(hits=1, misses=2).merge(CacheStats(hits=3, writebacks=4))
        assert merged.hits == 4
        assert merged.misses == 2
        assert merged.writebacks == 4


@settings(max_examples=50, deadline=None)
@given(
    addrs=st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=300),
    ways=st.integers(min_value=1, max_value=8),
    n_lines_exp=st.integers(min_value=2, max_value=6),
)
def test_occupancy_never_exceeds_capacity(addrs, ways, n_lines_exp):
    """Property: resident lines never exceed capacity, stats always add up."""
    lines = 1 << n_lines_exp
    cache = SetAssocCache(size_bytes=lines * 128, ways=ways)
    for addr in addrs:
        cache.access(addr)
    assert cache.resident_lines() <= cache.capacity_lines
    assert cache.stats.accesses == len(addrs)


@settings(max_examples=50, deadline=None)
@given(addrs=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=200))
def test_repeat_access_within_small_working_set_hits(addrs):
    """Property: a working set smaller than one set's ways never misses twice."""
    cache = SetAssocCache(size_bytes=64 * 128, ways=64)  # fully associative, 64 lines
    seen = set()
    for addr in addrs:
        hit, _ = cache.access(addr)
        assert hit == (addr in seen)
        seen.add(addr)


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(min_value=0, max_value=60), st.booleans()),
        min_size=1,
        max_size=300,
    )
)
def test_every_dirty_line_is_eventually_accounted(ops):
    """Property: dirty lines leave only via writeback-on-evict or flush."""
    cache = SetAssocCache(size_bytes=8 * 128, ways=4)
    written = set()
    evicted_dirty = []
    for addr, is_write in ops:
        _, writeback = cache.access(addr, is_write=is_write)
        if is_write:
            written.add(addr)
        if writeback is not None:
            evicted_dirty.append(writeback)
    flushed = cache.flush()
    # Every line reported dirty was written at some point.
    for addr in evicted_dirty + flushed:
        assert addr in written


class TestResetStats:
    def test_reset_stats_zeroes_counters_and_keeps_contents(self):
        cache = make_cache()
        cache.access(1)
        cache.access(1)
        cache.reset_stats()
        assert cache.stats.accesses == 0
        assert cache.stats.flushes == 0
        assert cache.resident_lines() == 1
        hit, _ = cache.access(1)
        assert hit  # contents untouched

    def test_disabled_cache_flush_counts_nothing(self):
        cache = SetAssocCache(size_bytes=0)
        assert cache.flush() == []
        assert cache.stats.flushes == 0
        assert cache.stats.writebacks == 0

    def test_enabled_cache_flush_still_counts(self):
        cache = make_cache()
        cache.flush()
        assert cache.stats.flushes == 1

    def test_sm_reset_uses_reset_stats(self):
        from repro.core.presets import baseline_mcm_gpu
        from repro.core.sm import SM

        config = baseline_mcm_gpu()
        sm = SM(0, 0, config.gpm.sm)
        sm.l1.access(1)
        sm.charge_issue(0.0, 8)
        sm.reset()
        assert sm.l1.stats.accesses == 0
        assert sm.l1.stats.flushes == 0  # the reset flush is not pollution
        assert sm.issue_busy_cycles == 0.0
