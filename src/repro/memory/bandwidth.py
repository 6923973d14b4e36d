"""Order-insensitive bandwidth reservation used by DRAM and package links.

Every finite-bandwidth resource in the simulator (a DRAM partition, one
virtual network of one link direction) is a :class:`BandwidthPipe`.  The
engine charges a whole memory transaction's path in a single pass, so a
pipe sees charges whose timestamps are *not* monotone — a response booked
150 cycles in the future may be followed by a request booked now.  A naive
``busy_until`` cursor would head-of-line-block the later-issued but
earlier-timed charge behind the future one, producing runaway latency
feedback.

Instead the pipe reserves capacity on a bucketed timeline: time is divided
into fixed-width buckets, each holding ``bandwidth * bucket_cycles`` bytes.
A transfer starting at ``now`` consumes free capacity from its bucket
forward; its finish time is where its last byte lands.  Reservations are
commutative — the order charges arrive in no longer matters beyond which
transfer gets the earlier capacity — while both serialization *and*
queuing-under-contention are preserved at bucket granularity.
"""

from __future__ import annotations

from fractions import Fraction

#: Default bucket width in cycles.  Small enough to resolve per-wave
#: queuing (DRAM service of one line is ~0.17 cycles; a kernel wave spans
#: thousands), large enough that bucket dictionaries stay compact.
DEFAULT_BUCKET_CYCLES = 16.0


class BandwidthPipe:
    """A finite-bandwidth resource with bucketed capacity reservation.

    Parameters
    ----------
    bytes_per_cycle:
        Service bandwidth.  At the paper's 1 GHz clock, ``x`` GB/s is
        ``x`` bytes/cycle, which keeps configurations readable.
    bucket_cycles:
        Reservation granularity.
    """

    __slots__ = (
        "name",
        "bytes_per_cycle",
        "bucket_cycles",
        "bucket_capacity",
        "bytes_transferred",
        "transfers",
        "busy_until",
        "_used",
        "_full_prefix",
    )

    def __init__(
        self,
        bytes_per_cycle: float,
        name: str = "pipe",
        bucket_cycles: float = DEFAULT_BUCKET_CYCLES,
    ) -> None:
        if bytes_per_cycle <= 0:
            raise ValueError(f"bytes_per_cycle must be positive, got {bytes_per_cycle}")
        if bucket_cycles <= 0:
            raise ValueError(f"bucket_cycles must be positive, got {bucket_cycles}")
        self.name = name
        self.bytes_per_cycle = bytes_per_cycle
        self.bucket_cycles = bucket_cycles
        self.bucket_capacity = bytes_per_cycle * bucket_cycles
        self.bytes_transferred = 0
        self.transfers = 0
        #: Latest finish time handed out so far (diagnostics only; not used
        #: for admission).
        self.busy_until = 0.0
        self._used: dict = {}
        # All buckets with index < _full_prefix are completely full; lets
        # heavily backlogged pipes skip ahead instead of rescanning.
        self._full_prefix = 0

    def transfer(self, now: float, n_bytes: int) -> float:
        """Reserve capacity for ``n_bytes`` starting no earlier than ``now``.

        Returns the cycle at which the last byte has been delivered, never
        sooner than ``n_bytes`` at full bandwidth after ``now``.  The
        caller adds any fixed propagation latency on top.
        """
        finish = self.reserve(now, n_bytes)
        self.bytes_transferred += n_bytes
        self.transfers += 1
        floor = now + n_bytes / self.bytes_per_cycle
        if finish < floor:
            finish = floor
        if finish > self.busy_until:
            self.busy_until = finish
        return finish

    def reserve(self, now: float, n_bytes: int) -> float:
        """The bucket walk behind :meth:`transfer`; returns the finish time.

        Consumes free capacity from ``now``'s bucket forward and returns
        where the last byte lands, without the byte/transfer counters,
        ``busy_until`` or the bandwidth floor.  :meth:`transfer` adds those;
        the generated memory walkers inline the one-bucket case, call this
        on a spill, derive the counters per kernel from their own tallies
        and apply the floor themselves.

        The greedy fill is associative, so ``reserve(now, n * count)``
        floored at ``now + n / bytes_per_cycle`` equals the last finish of
        ``count`` sequential ``transfer(now, n)`` calls and leaves the same
        bucket map: the walkers charge a record's DRAM lines that way.
        """
        if now < 0:
            raise ValueError(f"transfer time must be non-negative, got {now}")
        used = self._used
        capacity = self.bucket_capacity
        bucket_cycles = self.bucket_cycles
        full_prefix = self._full_prefix
        bucket = int(now / bucket_cycles)
        if bucket < full_prefix:
            bucket = full_prefix

        occupied = used.get(bucket, 0.0)
        new_occupancy = occupied + n_bytes
        if new_occupancy <= capacity:
            used[bucket] = new_occupancy
            finish = (bucket + new_occupancy / capacity) * bucket_cycles
            if new_occupancy >= capacity and bucket == full_prefix:
                self._advance_full_prefix(bucket + 1)
            return finish
        remaining = float(n_bytes)
        while True:
            free = capacity - occupied
            if free > 0.0:
                take = remaining if remaining < free else free
                occupied += take
                used[bucket] = occupied
                remaining -= take
                if remaining <= 0.0:
                    finish = (bucket + occupied / capacity) * bucket_cycles
                    if occupied >= capacity and bucket == self._full_prefix:
                        self._advance_full_prefix(bucket + 1)
                    return finish
            if occupied >= capacity and bucket == self._full_prefix:
                # Route through _advance_full_prefix so the prefix also
                # skips any contiguous run of buckets already filled by
                # out-of-order charges (backlogged pipes would rescan it).
                self._advance_full_prefix(bucket + 1)
            bucket += 1
            if bucket < self._full_prefix:
                bucket = self._full_prefix
            occupied = used.get(bucket, 0.0)

    def _advance_full_prefix(self, start: int) -> None:
        """Move ``_full_prefix`` to ``start``, then past any contiguous run
        of already-full buckets (filled earlier by out-of-order charges)."""
        used = self._used
        capacity = self.bucket_capacity
        prefix = start
        while used.get(prefix, 0.0) >= capacity:
            prefix += 1
        self._full_prefix = prefix

    def utilization(self, elapsed_cycles: float) -> float:
        """Fraction of peak bandwidth consumed over ``elapsed_cycles``."""
        if elapsed_cycles <= 0:
            return 0.0
        return self.bytes_transferred / (self.bytes_per_cycle * elapsed_cycles)

    def occupancy_windows(self, window_cycles: float):
        """Reserved bytes per time window, read straight from the bucket map.

        The bucket map *is* the pipe's time series: bucket ``i`` holds the
        bytes reserved for delivery in ``[i, i+1) * bucket_cycles``.  This
        aggregates it into coarser windows of ``window_cycles`` and returns
        a sorted list of ``(window_start_cycle, bytes)`` pairs, skipping
        empty windows.  Telemetry reads this after a run completes, so the
        hot path carries no extra bookkeeping.
        """
        if window_cycles <= 0:
            raise ValueError(f"window_cycles must be positive, got {window_cycles}")
        if not self._used:
            return []
        # A bucket belongs to the window containing its *start cycle*:
        # window = floor(bucket * bucket_cycles / window_cycles).  Computed
        # with Fraction-exact integer math — the old float division
        # ``int(bucket / (window_cycles / bucket_cycles))`` misassigned
        # boundary buckets whenever the cycle widths had no exact float
        # ratio (e.g. bucket_cycles=0.7, window_cycles=2.1).
        ratio = Fraction(self.bucket_cycles) / Fraction(window_cycles)
        numerator, denominator = ratio.numerator, ratio.denominator
        windows: dict = {}
        for bucket, occupied in self._used.items():
            window = bucket * numerator // denominator
            windows[window] = windows.get(window, 0.0) + occupied
        return [
            (window * window_cycles, occupied)
            for window, occupied in sorted(windows.items())
        ]

    def overfull_buckets(self, tolerance: float = 1e-9):
        """Buckets whose reservations exceed capacity, as ``(index, bytes)``.

        The reservation algorithm never admits more than ``bucket_capacity``
        bytes into one bucket, so a non-empty return value means the pipe's
        accounting is corrupt — this is the live-validation probe for the
        "bucket occupancy <= capacity" invariant.  ``tolerance`` absorbs
        float rounding from fractional byte splits.
        """
        limit = self.bucket_capacity * (1.0 + tolerance)
        return [
            (bucket, occupied)
            for bucket, occupied in self._used.items()
            if occupied > limit
        ]

    def reset(self) -> None:
        """Clear timing and counters (used when re-running on one system)."""
        self.busy_until = 0.0
        self.bytes_transferred = 0
        self.transfers = 0
        self._used.clear()
        self._full_prefix = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BandwidthPipe(name={self.name!r}, bw={self.bytes_per_cycle}B/cyc)"
