"""Unit and property tests for the bucketed bandwidth pipe."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.bandwidth import BandwidthPipe


class TestValidation:
    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError, match="bytes_per_cycle"):
            BandwidthPipe(0)

    def test_rejects_negative_time(self):
        pipe = BandwidthPipe(100)
        with pytest.raises(ValueError, match="non-negative"):
            pipe.transfer(-1.0, 10)


class TestSerialization:
    def test_single_transfer_duration(self):
        pipe = BandwidthPipe(128.0)
        finish = pipe.transfer(0.0, 128)
        assert finish == pytest.approx(1.0)

    def test_uncontended_transfer_is_prompt(self):
        pipe = BandwidthPipe(128.0)
        finish = pipe.transfer(1000.0, 128)
        assert finish == pytest.approx(1001.0)

    def test_contention_queues(self):
        pipe = BandwidthPipe(1.0, bucket_cycles=8.0)  # 8 bytes per bucket
        first = pipe.transfer(0.0, 8)
        second = pipe.transfer(0.0, 8)
        assert second > first
        assert second >= 16.0 * 0.99  # second fill lands in the next bucket

    def test_counters(self):
        pipe = BandwidthPipe(10.0)
        pipe.transfer(0.0, 100)
        pipe.transfer(5.0, 50)
        assert pipe.bytes_transferred == 150
        assert pipe.transfers == 2


class TestOrderInsensitivity:
    def test_late_charge_does_not_block_early_one(self):
        """The failure mode of a naive busy_until cursor: a transfer booked
        deep in the future must not delay one booked now."""
        pipe = BandwidthPipe(768.0)
        pipe.transfer(5000.0, 128)
        early = pipe.transfer(0.0, 128)
        assert early < 100.0

    def test_same_demand_same_finish_any_order(self):
        charges = [(0.0, 128), (100.0, 64), (3.0, 256), (50.0, 128)] * 5
        finishes_fwd = []
        pipe = BandwidthPipe(4.0, bucket_cycles=16.0)
        for now, size in charges:
            finishes_fwd.append(pipe.transfer(now, size))
        pipe2 = BandwidthPipe(4.0, bucket_cycles=16.0)
        total_fwd = pipe.bytes_transferred
        for now, size in reversed(charges):
            pipe2.transfer(now, size)
        assert pipe2.bytes_transferred == total_fwd
        # Aggregate completion (the last byte served) matches regardless of
        # arrival order.
        assert pipe2.busy_until == pytest.approx(max(finishes_fwd), rel=0.25)


class TestUtilization:
    def test_utilization_fraction(self):
        pipe = BandwidthPipe(10.0)
        pipe.transfer(0.0, 50)
        assert pipe.utilization(10.0) == pytest.approx(0.5)

    def test_zero_elapsed(self):
        assert BandwidthPipe(10.0).utilization(0.0) == 0.0


class TestReset:
    def test_reset_clears_everything(self):
        pipe = BandwidthPipe(1.0)
        pipe.transfer(0.0, 100)
        pipe.reset()
        assert pipe.bytes_transferred == 0
        assert pipe.busy_until == 0.0
        finish = pipe.transfer(0.0, 1)
        assert finish <= 16.0  # first bucket again


@settings(max_examples=60, deadline=None)
@given(
    charges=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
            st.integers(min_value=1, max_value=4096),
        ),
        min_size=1,
        max_size=100,
    ),
    bandwidth=st.floats(min_value=0.5, max_value=1024.0),
)
def test_finish_respects_serialization_floor(charges, bandwidth):
    """Property: finish >= now + bytes/bw, and finish is always finite."""
    pipe = BandwidthPipe(bandwidth)
    for now, size in charges:
        finish = pipe.transfer(now, size)
        assert finish >= now + size / bandwidth - 1e-9


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=512), min_size=1, max_size=200),
)
def test_sustained_demand_is_bandwidth_bound(sizes):
    """Property: total service time for a burst is at least bytes/bw."""
    pipe = BandwidthPipe(16.0, bucket_cycles=8.0)
    last = 0.0
    for size in sizes:
        last = max(last, pipe.transfer(0.0, size))
    total_bytes = sum(sizes)
    assert last >= total_bytes / 16.0 - 8.0  # within one bucket of the bound


class TestFullPrefixAdvance:
    """Regression: the full-bucket skip pointer must advance on every way a
    bucket can reach capacity, so a backlogged pipe never rescans known-full
    buckets on admission."""

    def test_fast_path_exact_fill_advances_prefix(self):
        pipe = BandwidthPipe(1.0, bucket_cycles=8.0)  # 8 bytes per bucket
        pipe.transfer(0.0, 8)  # fast path: fills bucket 0 exactly
        assert pipe._full_prefix == 1

    def test_slow_path_final_exact_fill_advances_prefix(self):
        pipe = BandwidthPipe(1.0, bucket_cycles=8.0)
        pipe.transfer(0.0, 16)  # fills buckets 0 and 1, ending exactly full
        assert pipe._full_prefix == 2

    def test_prefix_hops_over_full_buckets_filled_out_of_order(self):
        pipe = BandwidthPipe(1.0, bucket_cycles=8.0)
        # Fill bucket 1 first (out of order); prefix cannot move yet because
        # bucket 0 still has room.
        pipe.transfer(8.0, 8)
        assert pipe._full_prefix == 0
        # Filling bucket 0 must advance the prefix past the already-full
        # bucket 1 in one step, not stop adjacent to it.
        pipe.transfer(0.0, 8)
        assert pipe._full_prefix == 2

    def test_admission_skips_saturated_prefix_without_rescanning(self):
        pipe = BandwidthPipe(1.0, bucket_cycles=8.0)
        for _ in range(50):
            pipe.transfer(0.0, 8)  # saturate buckets 0..49 via the fast path
        assert pipe._full_prefix == 50
        # The next charge at now=0 must be admitted directly at the prefix:
        # its first candidate bucket is the first non-full one, so the slow
        # path never iterates over the 50 saturated buckets.
        finish = pipe.transfer(0.0, 8)
        assert finish == pytest.approx(51 * 8.0)
        assert pipe._full_prefix == 51

    def test_prefix_shortcut_is_timing_neutral(self):
        """The skip pointer is a pure scan optimization: charging the same
        demand with and without it yields identical finish times."""
        charges = [(0.0, 8), (0.0, 8), (8.0, 8), (0.0, 4), (16.0, 8), (0.0, 12)]
        optimized = BandwidthPipe(1.0, bucket_cycles=8.0)
        reference = BandwidthPipe(1.0, bucket_cycles=8.0)
        reference._full_prefix = 0  # it always is; scan from zero regardless
        finishes = []
        for now, size in charges:
            finishes.append(optimized.transfer(now, size))
        expected = []
        for now, size in charges:
            reference._full_prefix = 0  # force the rescan path every charge
            expected.append(reference.transfer(now, size))
        assert finishes == pytest.approx(expected)


class TestOccupancyWindows:
    def test_empty_pipe_has_no_windows(self):
        assert BandwidthPipe(16.0).occupancy_windows(4096.0) == []

    def test_windows_aggregate_buckets(self):
        pipe = BandwidthPipe(1.0, bucket_cycles=8.0)
        pipe.transfer(0.0, 8)
        pipe.transfer(8.0, 4)
        pipe.transfer(100.0, 2)
        windows = pipe.occupancy_windows(16.0)
        assert windows[0] == (0.0, 12.0)  # buckets 0+1 fold into window 0
        assert (96.0, 2.0) in windows

    def test_rejects_non_positive_window(self):
        with pytest.raises(ValueError, match="window_cycles"):
            BandwidthPipe(16.0).occupancy_windows(0.0)

    def test_non_multiple_window_width_boundary_bucket(self):
        """Regression: with bucket_cycles=0.3 the float ratio 0.9/0.3 is
        2.9999999999999996, and the old ``int(bucket / ratio)`` assigned
        bucket 3 (start cycle 3 * 0.3 = 0.8999999999999999, i.e. *before*
        the float 0.9 window boundary) to window 1.  The Fraction-exact
        index must keep it in window 0."""
        pipe = BandwidthPipe(10.0, bucket_cycles=0.3)
        pipe.transfer(1.0, 2)  # lands in bucket 3
        assert pipe._used == {3: 2.0}
        assert pipe.occupancy_windows(0.9) == [(0.0, 2.0)]
        # And it aggregates with genuine window-0 buckets rather than
        # opening a spurious second window.
        pipe.transfer(0.0, 1)
        assert pipe.occupancy_windows(0.9) == [(0.0, 3.0)]

    def test_exact_multiple_window_width_unchanged(self):
        pipe = BandwidthPipe(1.0, bucket_cycles=8.0)
        for bucket in range(6):
            pipe.transfer(bucket * 8.0, 2)
        windows = pipe.occupancy_windows(16.0)
        assert windows == [(0.0, 4.0), (16.0, 4.0), (32.0, 4.0)]


class TestConservation:
    """No byte is created or lost by the reservation algorithm: the bucket
    map always holds exactly the bytes charged, and no bucket ever exceeds
    its capacity — across out-of-order arrivals and both the single-bucket
    fast path and the spilling slow path."""

    @staticmethod
    def _assert_conserved(pipe, expected_bytes):
        assert sum(pipe._used.values()) == expected_bytes
        assert pipe.bytes_transferred == expected_bytes
        assert pipe.overfull_buckets() == []

    def test_fast_path_conserves(self):
        pipe = BandwidthPipe(4.0, bucket_cycles=16.0)  # 64 bytes per bucket
        total = 0
        for now, size in [(0.0, 32), (500.0, 16), (10.0, 32), (0.0, 16)]:
            pipe.transfer(now, size)
            total += size
        self._assert_conserved(pipe, total)

    def test_slow_path_spill_conserves(self):
        pipe = BandwidthPipe(4.0, bucket_cycles=16.0)
        pipe.transfer(0.0, 1000)  # spills across 16 buckets
        self._assert_conserved(pipe, 1000)

    def test_seeded_out_of_order_charges_conserve(self):
        import random

        rng = random.Random(0xC0FFEE)
        pipe = BandwidthPipe(4.0, bucket_cycles=16.0)
        total = 0
        for _ in range(500):
            now = rng.uniform(0.0, 2000.0)
            # Sizes up to 4x bucket capacity exercise both paths; the low
            # time range forces heavy contention and prefix skipping.
            size = rng.randint(1, 256)
            pipe.transfer(now, size)
            total += size
        self._assert_conserved(pipe, total)

    @settings(max_examples=60, deadline=None)
    @given(
        charges=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=3000.0, allow_nan=False),
                st.integers(min_value=1, max_value=512),
            ),
            min_size=1,
            max_size=120,
        ),
    )
    def test_conservation_property(self, charges):
        # Integer bucket capacity (1.0 * 16.0) keeps every split exact, so
        # the conservation law holds with == rather than approx.
        pipe = BandwidthPipe(1.0, bucket_cycles=16.0)
        for now, size in charges:
            pipe.transfer(now, size)
        self._assert_conserved(pipe, sum(size for _, size in charges))



class TestReserveMatchesTransfer:
    """``reserve`` (the walker codegen's spill call) must reproduce
    ``transfer``'s bucket walk exactly; only the floor, counters, and
    busy_until bookkeeping are left to the caller."""

    def test_reserve_finish_and_buckets_match_transfer(self):
        import random

        rng = random.Random(2026)
        charges = [
            (rng.uniform(0.0, 1500.0), rng.randint(1, 256)) for _ in range(300)
        ]
        ref = BandwidthPipe(4.0, bucket_cycles=16.0)
        fast = BandwidthPipe(4.0, bucket_cycles=16.0)
        for now, size in charges:
            expected = ref.transfer(now, size)
            finish = fast.reserve(now, size)
            floor = now + size / fast.bytes_per_cycle
            if finish < floor:
                finish = floor
            assert finish == expected
        assert fast._used == ref._used
        assert fast._full_prefix == ref._full_prefix
        # reserve leaves the deferred bookkeeping untouched.
        assert fast.bytes_transferred == 0
        assert fast.transfers == 0
        assert fast.busy_until == 0.0

    @settings(max_examples=80, deadline=None)
    @given(
        earlier=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=600.0, allow_nan=False),
                st.integers(min_value=1, max_value=512),
            ),
            max_size=40,
        ),
        now=st.floats(min_value=0.0, max_value=600.0, allow_nan=False),
        n_bytes=st.sampled_from([64, 128, 192]),
        count=st.integers(min_value=1, max_value=12),
        # Whole-byte bucket capacities, as every DRAM pipe of the presets has.
        bandwidth=st.sampled_from([0.5, 4.0, 37.5, 192.0, 768.0]),
    )
    def test_one_reservation_matches_a_run_of_transfers(
        self, earlier, now, n_bytes, count, bandwidth
    ):
        """The walkers charge ``count`` lines to one pipe at one cycle as
        ``reserve(now, n * count)`` floored at one line's time; that must
        be the last finish of ``count`` sequential ``transfer(now, n)``
        calls and leave the same bucket map."""
        ref = BandwidthPipe(bandwidth, bucket_cycles=16.0)
        fast = BandwidthPipe(bandwidth, bucket_cycles=16.0)
        for at, size in earlier:
            ref.transfer(at, size)
            fast.transfer(at, size)
        for _ in range(count):
            expected = ref.transfer(now, n_bytes)
        finish = fast.reserve(now, n_bytes * count)
        floor = now + n_bytes / bandwidth
        assert max(finish, floor) == expected
        assert fast._used == ref._used
        assert fast._full_prefix == ref._full_prefix
