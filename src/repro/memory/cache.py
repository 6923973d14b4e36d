"""Set-associative cache model with exact LRU replacement.

All caches in the simulated hierarchy (per-SM L1, GPM-side L1.5, memory-side
L2) are instances of :class:`SetAssocCache`.  The model is functional, not
cycle-accurate: it answers hit/miss questions and tracks dirty state so the
memory system can charge the right latency and generate write-back traffic.

Implementation notes
--------------------
Each set is a plain ``dict`` mapping line address to a dirty flag.  Python
dictionaries preserve insertion order, so LRU is implemented by removing and
re-inserting a key on every touch; the least recently used line is then the
first key of the dict.  This is both exact and fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List

from .address import is_power_of_two


class WritePolicy(Enum):
    """How a cache handles stores.

    ``WRITE_THROUGH`` caches (L1 and L1.5 in the paper, to keep software
    coherence simple) forward every store to the next level and never hold
    dirty data.  ``WRITE_BACK`` caches (memory-side L2) absorb stores and
    emit the line to DRAM only on eviction.
    """

    WRITE_THROUGH = "write_through"
    WRITE_BACK = "write_back"


class AllocationPolicy(Enum):
    """Which accesses are allowed to allocate into a cache.

    The paper's GPM-side L1.5 cache is evaluated with an ``ALL`` policy and a
    ``REMOTE_ONLY`` policy (Section 5.1.2); remote-only wins and is the
    configuration used by the optimized MCM-GPU.
    """

    ALL = "all"
    REMOTE_ONLY = "remote_only"


@dataclass
class CacheStats:
    """Counters accumulated by a :class:`SetAssocCache` over a simulation.

    ``hits``/``misses`` count the lookup path and include write touches:
    a write-through store that finds its line resident refreshes it and
    counts a hit (tracked separately in ``write_hits``), matching how the
    counters have always been reported.  ``bypasses`` counts no-allocate
    requests that found no resident line — for the write-through levels
    that is exactly the store probe-misses that are forwarded downstream
    untouched, so every store is accounted for as either a ``write_hit``
    or a ``bypass``.  The paper's Figure 6/7 hit-rate quantities are
    *load* hit rates: ``hits - write_hits`` over ``accesses -
    write_hits - write_misses``, as telemetry's window rates report them.
    """

    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    flushes: int = 0
    bypasses: int = 0
    #: Lookup hits whose access was a write (store touches at the
    #: write-through levels, write-allocate lookups at the L2).
    write_hits: int = 0
    #: Lookup misses whose access was a write (only the write-allocate L2
    #: can take these; write-through store probe-misses are ``bypasses``).
    write_misses: int = 0

    @property
    def accesses(self) -> int:
        """Total accesses that went through the lookup path."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit ratio over *all* lookups (loads and write touches alike).

        0.0 when the cache was never accessed.  The load-only quantity
        the paper reports in Figures 6/7 excludes the write touches (see
        the class docstring).
        """
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Return a new ``CacheStats`` with counters from both operands."""
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            writebacks=self.writebacks + other.writebacks,
            flushes=self.flushes + other.flushes,
            bypasses=self.bypasses + other.bypasses,
            write_hits=self.write_hits + other.write_hits,
            write_misses=self.write_misses + other.write_misses,
        )


#: Access outcomes returned by :meth:`SetAssocCache.access`: a
#: ``(hit, writeback_line)`` tuple.  ``writeback_line`` is the address of a
#: dirty line displaced by the access (the caller charges the resulting
#: DRAM write traffic) or ``None``.  Plain tuples keep the hot path free of
#: per-access object allocation.
HIT = (True, None)
MISS = (False, None)


class SetAssocCache:
    """An exact-LRU set-associative cache.

    Parameters
    ----------
    size_bytes:
        Total capacity.  A zero size yields a legal cache that misses on
        every access (used to disable a level without special-casing).
    line_bytes:
        Line size; must be a power of two.
    ways:
        Associativity.  Capacities smaller than one way per set are rejected.
    write_policy:
        See :class:`WritePolicy`.
    name:
        Label used in reports and error messages.
    """

    def __init__(
        self,
        size_bytes: int,
        line_bytes: int = 128,
        ways: int = 16,
        write_policy: WritePolicy = WritePolicy.WRITE_BACK,
        name: str = "cache",
    ) -> None:
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be non-negative, got {size_bytes}")
        if not is_power_of_two(line_bytes):
            raise ValueError(f"line_bytes must be a power of two, got {line_bytes}")
        if ways <= 0:
            raise ValueError(f"ways must be positive, got {ways}")

        self.name = name
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.write_policy = write_policy
        self.stats = CacheStats()

        total_lines = size_bytes // line_bytes
        if size_bytes and total_lines == 0:
            raise ValueError(
                f"{name}: size {size_bytes}B is smaller than one line ({line_bytes}B)"
            )
        if total_lines and total_lines < ways:
            # Degenerate but usable: clamp associativity to the line count.
            ways = total_lines
        self.ways = ways
        self.n_sets = max(1, total_lines // ways) if total_lines else 0
        self._sets: List[Dict[int, bool]] = [dict() for _ in range(self.n_sets)]
        self._track_dirty = write_policy is WritePolicy.WRITE_BACK

    @property
    def enabled(self) -> bool:
        """False for zero-capacity caches, which miss unconditionally."""
        return self.n_sets > 0

    @property
    def capacity_lines(self) -> int:
        """Total number of lines the cache can hold."""
        return self.n_sets * self.ways

    def access(self, line_addr: int, is_write: bool = False):
        """Look up ``line_addr``, allocating it on a miss.

        Returns a ``(hit, writeback_line)`` tuple; when a dirty line is
        displaced by the allocation its address is reported as
        ``writeback_line`` (otherwise ``None``).  No-allocate stores take
        :meth:`touch_store` instead.

        A write to a ``WRITE_THROUGH`` cache updates the line (if present or
        allocated) but never marks it dirty — the caller must forward the
        store downstream.
        """
        stats = self.stats
        if not self._sets:
            stats.misses += 1
            if is_write:
                stats.write_misses += 1
            return MISS

        cache_set = self._sets[line_addr % self.n_sets]
        track_dirty = is_write and self._track_dirty

        if line_addr in cache_set:
            stats.hits += 1
            if is_write:
                stats.write_hits += 1
            dirty = cache_set.pop(line_addr) or track_dirty
            cache_set[line_addr] = dirty
            return HIT

        stats.misses += 1
        if is_write:
            stats.write_misses += 1

        writeback = None
        if len(cache_set) >= self.ways:
            victim_addr = next(iter(cache_set))
            victim_dirty = cache_set.pop(victim_addr)
            if victim_dirty:
                stats.writebacks += 1
                writeback = victim_addr
        cache_set[line_addr] = track_dirty
        if writeback is None:
            return MISS
        return (False, writeback)

    def touch_store(self, line_addr: int) -> bool:
        """Fused probe + write-touch for the no-allocate store path.

        One dict lookup per line — this is the hottest cache operation in
        a simulation.  A resident line
        counts a hit (tracked as a write hit), is refreshed in LRU order,
        and is marked dirty only in write-back caches; an absent line
        counts a ``bypass`` — the store is forwarded downstream without
        allocating, so it is neither a hit nor a miss of the lookup path.
        Returns residency.
        """
        stats = self.stats
        if self._sets:
            cache_set = self._sets[line_addr % self.n_sets]
            if line_addr in cache_set:
                stats.hits += 1
                stats.write_hits += 1
                cache_set[line_addr] = cache_set.pop(line_addr) or self._track_dirty
                return True
        stats.bypasses += 1
        return False

    def flush(self) -> List[int]:
        """Invalidate the whole cache, returning dirty lines for write-back.

        Models the software-coherence flush at kernel boundaries
        (Section 5.1.1).  Write-through caches never hold dirty lines, so the
        returned list is empty for them.  A disabled (zero-capacity) cache
        holds nothing and counts nothing: its ``flushes`` stat stays zero so
        telemetry never reports phantom activity for an absent level.
        """
        if not self._sets:
            return []
        if not self._track_dirty:
            # Write-through caches never hold dirty lines; skip the
            # per-line dirty scan (kernel-boundary flushes of every L1 are
            # on the hot path of multi-kernel simulations).
            for cache_set in self._sets:
                cache_set.clear()
            self.stats.flushes += 1
            return []
        dirty_lines: List[int] = []
        for cache_set in self._sets:
            dirty_lines.extend(addr for addr, dirty in cache_set.items() if dirty)
            cache_set.clear()
        self.stats.flushes += 1
        self.stats.writebacks += len(dirty_lines)
        return dirty_lines

    def reset_stats(self) -> None:
        """Zero all counters without touching cache contents.

        Zeroes the existing ``CacheStats`` object in place rather than
        replacing it: the array-backed fast path builds per-SM walkers
        that bind stats objects once per system, and those bindings must
        survive ``reset()`` between runs.
        """
        stats = self.stats
        stats.hits = 0
        stats.misses = 0
        stats.writebacks = 0
        stats.flushes = 0
        stats.bypasses = 0
        stats.write_hits = 0
        stats.write_misses = 0

    def resident_lines(self) -> int:
        """Number of valid lines currently held."""
        return sum(len(cache_set) for cache_set in self._sets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetAssocCache(name={self.name!r}, size={self.size_bytes}B, "
            f"sets={self.n_sets}, ways={self.ways}, policy={self.write_policy.value})"
        )
