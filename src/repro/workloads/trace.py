"""Trace representation consumed by the simulation engine.

A workload is a sequence of kernel launches; a kernel launch is a CTA count
plus a function producing, for any CTA index, the memory/compute trace of
each of its warp groups.  Traces are generated lazily (at CTA dispatch
time) and deterministically (same CTA index -> same trace), which both
bounds memory use and gives iterative kernels their cross-kernel locality
for free.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np


class TraceRecord(NamedTuple):
    """One step of a warp group: a burst of compute then a memory batch.

    ``compute_cycles`` is the latency of the arithmetic section;
    ``reads``/``writes`` are line addresses issued together (the group's
    memory-level parallelism).
    """

    compute_cycles: float
    reads: Tuple[int, ...]
    writes: Tuple[int, ...]

    @property
    def n_accesses(self) -> int:
        """Loads plus stores in this record."""
        return len(self.reads) + len(self.writes)


#: The full trace of one CTA: one record list per warp group.  The engine
#: also accepts a :class:`ColumnarCTATrace`, which carries the same records
#: as numpy columns and materializes either view on demand.
CTATrace = List[List[TraceRecord]]


class WalkGeometry(NamedTuple):
    """The memory-system shape a columnar trace is specialized against.

    The generated walkers' records carry, per line, every piece of
    arithmetic that depends only on the address and the (immutable) system
    geometry: the L1 set index (``line % n_l1_sets``), the homing key
    (``line % n_partitions`` for fine-grain interleaving, ``line //
    lines_per_page`` for paged policies), and — when the respective level
    has the same set count in every GPM — the L2 and L1.5 set indices.
    ``n_l2_sets``/``n_l15_sets`` are 0 when the level is absent, disabled,
    or non-uniform across GPMs; walkers then derive the index themselves.
    ``issue_throughput`` folds the per-record issue busy time into the same
    derivation.  ``packed`` is False for the per-line reference path's
    flavor, whose records keep plain address tuples.
    """

    packed: bool
    n_l1_sets: int
    line_interleaved: bool
    n_partitions: int
    lines_per_page: int
    issue_throughput: float
    n_l2_sets: int = 0
    n_l15_sets: int = 0

    def line_table_key(self) -> tuple:
        """The fields a ``(line, l1_set, home_key, l2_set, l15_set)``
        quintuple is derived from: machines that differ only in
        ``issue_throughput`` or ``packed`` share one :class:`_LineTable`."""
        return (
            self.n_l1_sets,
            self.line_interleaved,
            self.n_partitions,
            self.lines_per_page,
            self.n_l2_sets,
            self.n_l15_sets,
        )


class _LineTable:
    """One geometry's ``{line: quintuple}`` table, shared by every trace.

    Every packed record of the geometry takes its quintuples from here, so
    a line that many traces touch is one immutable tuple, not one per
    address.  ``quintuples`` stays an exact ``dict`` (``set.difference``
    takes its fast path only on one), and a dict cannot be weakly
    referenced, hence this holder.  :data:`_LINE_TABLES` holds a table
    weakly and each trace packed against it holds it strongly (through
    its :class:`_TablePins`), so a table lives exactly as long as some
    trace that used it: a process-wide table would keep every geometry's
    lines for the life of a pool worker.
    """

    __slots__ = ("quintuples", "__weakref__")

    def __init__(self) -> None:
        self.quintuples: dict = {}


class _TablePins:
    """The tables a trace was packed against, in packing order.

    Traces that used the same tables in the same order share one instance
    (interned in :data:`_TABLE_PINS` by ``keys``), so pinning adds no
    per-trace container the cyclic collector would have to keep tracking.
    """

    __slots__ = ("keys", "tables", "__weakref__")

    def __init__(self, keys: tuple, tables: tuple) -> None:
        self.keys = keys
        self.tables = tables


#: Live line tables by :meth:`WalkGeometry.line_table_key`.
_LINE_TABLES: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()
#: Live pin sets by their tuple of table keys.
_TABLE_PINS: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()


class _RecordLayout:
    """The record structure every group of a columnar trace shares.

    ``spans`` is the tuple of per-record ``(start, reads_end, end)`` column
    spans; ``is_write`` (the read-only store mask) and ``order`` (the
    read-only column permutation that puts each record's loads ahead of its
    stores) are set for layouts built by :meth:`ColumnarCTATrace.from_flat`,
    which shares one layout between every trace of the same shape.  The
    read and write slice tables the packers cut each group's row with are
    built on first use and kept here, so they too are built once per shape.
    """

    __slots__ = ("spans", "is_write", "order", "_slices")

    def __init__(self, spans: Tuple[Tuple[int, int, int], ...], is_write=None, order=None) -> None:
        self.spans = spans
        self.is_write = is_write
        self.order = order
        self._slices = None

    def slices(self) -> Tuple[Tuple[slice, ...], Tuple[slice, ...]]:
        """Per-record ``(read slices, write slices)`` into one group's row."""
        slices = self._slices
        if slices is None:
            spans = self.spans
            slices = self._slices = (
                tuple([slice(start, mid) for start, mid, _ in spans]),
                tuple([slice(mid, end) for _, mid, end in spans]),
            )
        return slices


@lru_cache(maxsize=256)
def _flat_layout(per_group: int, write_period: int, accesses_per_record: int) -> _RecordLayout:
    """The memoised :meth:`ColumnarCTATrace.from_flat` layout of one shape."""
    positions = np.arange(1, per_group + 1, dtype=np.int64)
    if write_period:
        mask = positions % write_period == 0
    else:
        mask = np.zeros(per_group, dtype=bool)
    # Stable reorder: group accesses by record, reads ahead of writes,
    # original order preserved within each class.  The permutation is the
    # same for every group, so it is applied to the whole 2-D address
    # block in one fancy-index.
    record_ids = (positions - 1) // accesses_per_record
    order = np.lexsort((positions, mask, record_ids))
    is_write = mask[order]
    order.flags.writeable = False
    is_write.flags.writeable = False
    starts = range(0, per_group, accesses_per_record)
    if starts:
        read_counts = np.add.reduceat(
            (~mask).astype(np.int64), np.array(starts, dtype=np.int64)
        ).tolist()
    else:
        read_counts = []
    spans = tuple(
        [
            (start, start + reads, min(start + accesses_per_record, per_group))
            for start, reads in zip(starts, read_counts)
        ]
    )
    return _RecordLayout(spans, is_write, order)


_READS = itemgetter(1)
_WRITES = itemgetter(2)


class ColumnarCTATrace:
    """One CTA's trace as numpy columns plus record/group geometry.

    The generators in :mod:`repro.workloads.patterns` already produce flat
    int64 address arrays; this class keeps that vectorization instead of
    immediately exploding it into per-record Python tuples.  Three views
    are materialized on demand:

    * ``addrs`` / ``is_write`` — the columns themselves (addresses are a
      ``(n_groups, accesses_per_group)`` int64 array, reads-before-writes
      within each record; ``is_write`` marks the store positions and is
      shared by all groups, whose record structure is identical).
    * :meth:`base_groups` — classic ``List[List[TraceRecord]]`` records
      for the reference per-line path and any external consumer (cached).
    * :meth:`fast_groups` — records specialized for one
      :class:`WalkGeometry`: ``(compute_cycles, issue_busy, reads,
      writes)`` tuples whose read/write entries are ``(line, l1_set,
      home_key, l2_set, l15_set)`` quintuples.  Cached per geometry
      (benchmark harnesses interleave several configurations over the
      same memoized traces, so a one-slot cache would thrash and repack on
      every config switch).

    Quintuples come from one :class:`_LineTable` per geometry shape, shared
    by every trace packed against it: a line that many CTAs and workloads
    touch is one tuple, not one per address, and only lines the table has
    not seen go through the whole-column array ops.  The trace pins each
    table it used, so a table is freed with the last such trace.

    Both views are built with a few C-level passes per group: a row's
    entries (its addresses, or the quintuples one ``map`` fetches from the
    line table) are cut into records by ``map``/``zip`` over the layout's
    slice tables.  Fast groups, records and quintuples are plain
    tuples of numbers, built one tree level at a time, so the cyclic
    collector stops tracking a packed trace within the first passes that
    see it (about one level per pass) and never rescans it in later full
    collections; with list groups every packed trace stayed tracked for
    its whole life.
    """

    __slots__ = (
        "addrs",
        "is_write",
        "compute_cycles",
        "n_groups",
        "_layout",
        "_base",
        "_fast",
        "_pins",
    )

    def __init__(
        self,
        addrs: "np.ndarray",
        is_write: "np.ndarray",
        spans: Sequence[Tuple[int, int, int]],
        compute_cycles: float,
    ) -> None:
        self._init(
            addrs, is_write, _RecordLayout(tuple(map(tuple, spans))), compute_cycles
        )

    def _init(self, addrs, is_write, layout: _RecordLayout, compute_cycles: float) -> None:
        self.addrs = addrs
        self.is_write = is_write
        self.compute_cycles = compute_cycles
        self.n_groups = addrs.shape[0]
        self._layout = layout
        self._base: list = None
        self._fast: dict = None
        self._pins: _TablePins = None

    @classmethod
    def from_flat(
        cls,
        lines: "np.ndarray",
        n_groups: int,
        write_period: int,
        accesses_per_record: int,
        compute_cycles: float,
    ) -> "ColumnarCTATrace":
        """Build from a flat per-CTA address stream.

        Mirrors ``records_from_arrays`` applied to each equal-length group
        slice of ``lines``: every ``write_period``-th access (1-indexed
        within its group) is a store, records batch ``accesses_per_record``
        accesses with the partial tail kept, and loads keep their relative
        order ahead of stores within a record.  The layout depends only on
        the group length, ``write_period`` and ``accesses_per_record``, so
        traces of one shape share it (and its read-only ``is_write``).
        """
        if accesses_per_record <= 0:
            raise ValueError(
                f"accesses_per_record must be positive, got {accesses_per_record}"
            )
        if n_groups <= 0:
            raise ValueError(f"n_groups must be positive, got {n_groups}")
        flat = np.asarray(lines, dtype=np.int64)
        per_group, leftover = divmod(flat.size, n_groups)
        if leftover:
            raise ValueError(
                f"{flat.size} accesses do not divide into {n_groups} equal groups"
            )
        layout = _flat_layout(per_group, write_period, accesses_per_record)
        trace = cls.__new__(cls)
        trace._init(
            flat.reshape(n_groups, per_group)[:, layout.order],
            layout.is_write,
            layout,
            compute_cycles,
        )
        return trace

    @property
    def spans(self) -> Tuple[Tuple[int, int, int], ...]:
        """Per-record ``(start, reads_end, end)`` column spans.

        Together with ``addrs`` and ``compute_cycles`` this is the trace's
        complete semantic content: the engine derives everything else
        (including the read/write split — ``is_write`` is a convenience
        view) from these three.  Exporters serialize exactly this triple.
        """
        return self._layout.spans

    def __len__(self) -> int:
        return self.n_groups

    def __iter__(self):
        return iter(self.base_groups())

    def __getitem__(self, index):
        return self.base_groups()[index]

    def _fields(self, flat: tuple) -> Tuple[list, list]:
        """Every record's read tuple and write tuple, group-major.

        ``flat`` holds one entry per address, row-major; each group's row
        is one tuple slice of it, cut into records by the layout's slice
        tables (a tuple's slice is again a tuple).
        """
        read_slices, write_slices = self._layout.slices()
        per_group = self.addrs.shape[1]
        reads: list = []
        writes: list = []
        for group in range(self.n_groups):
            row = flat[group * per_group : (group + 1) * per_group]
            reads += map(row.__getitem__, read_slices)
            writes += map(row.__getitem__, write_slices)
        return reads, writes

    def _split(self, records: Sequence) -> list:
        """Cut a group-major record sequence into per-group slices."""
        n_records = len(self._layout.spans)
        return [
            records[group * n_records : (group + 1) * n_records]
            for group in range(self.n_groups)
        ]

    def base_groups(self) -> CTATrace:
        """The classic ``TraceRecord`` view (cached after first use)."""
        base = self._base
        if base is None:
            reads, writes = self._fields(tuple(self.addrs.ravel().tolist()))
            # ``tuple.__new__(TraceRecord, fields)`` is what the named
            # tuple's own constructor calls, minus a Python frame.
            records = list(
                map(
                    tuple.__new__,
                    repeat(TraceRecord),
                    zip(repeat(self.compute_cycles), reads, writes),
                )
            )
            base = self._base = self._split(records)
        return base

    def fast_groups(self, geometry: WalkGeometry):
        """Records specialized for ``geometry`` (cached per geometry).

        Packed records are ``(compute_cycles, issue_busy, reads, writes)``
        with ``(line, l1_set, home_key, l2_set, l15_set)`` quintuples, the
        same tuple object for a line wherever the geometry's line table
        hands it out (machines that differ only in ``issue_throughput``
        share the table); the unpacked flavor keeps plain address tuples
        (shared with :meth:`base_groups`).  ``issue_busy`` is accumulated
        with the same left-to-right float arithmetic as
        ``SM.charge_issue`` so the engine's timing is bit-identical.
        Groups and records are tuples.
        """
        cache = self._fast
        if cache is None:
            cache = self._fast = {}
        else:
            cached = cache.get(geometry)
            if cached is not None:
                return cached
        compute_cycles = self.compute_cycles
        throughput = geometry.issue_throughput
        busys = [
            (compute_cycles + (mid - start) + (end - mid)) / throughput
            for start, mid, end in self._layout.spans
        ]
        # Each level of the tree is finished before the next one starts
        # (quintuples, then read/write tuples, then records, then groups),
        # so a young collection mostly finds children in an older
        # generation, already untracked, and untracks the parents it scans.
        if geometry.packed:
            quintuples = self._line_table(geometry).quintuples
            lines = self.addrs.ravel().tolist()
            missing = set(lines).difference(quintuples)
            if missing:
                columns = _geometry_columns(
                    np.fromiter(missing, dtype=np.int64, count=len(missing)), geometry
                )
                quintuples.update(zip(columns[0], zip(*columns)))
            reads, writes = self._fields(tuple(map(quintuples.__getitem__, lines)))
        else:
            base = list(chain.from_iterable(self.base_groups()))
            reads = list(map(_READS, base))
            writes = list(map(_WRITES, base))
        # A tuple copied from a finished list is allocated after its items;
        # ``tuple(zip(...))`` would allocate it first and grow it.
        records = tuple(
            list(zip(repeat(compute_cycles), busys * self.n_groups, reads, writes))
        )
        groups = tuple(self._split(records))
        # Keyed by a plain tuple equal to ``geometry`` (lookups by the named
        # tuple still hit): with no tracked key or value left, a full
        # collection stops tracking the cache dict as well.
        cache[tuple(geometry)] = groups
        return groups

    def _line_table(self, geometry: WalkGeometry) -> _LineTable:
        """``geometry``'s live line table, pinned by this trace."""
        key = geometry.line_table_key()
        table = _LINE_TABLES.get(key)
        if table is None:
            table = _LINE_TABLES[key] = _LineTable()
        pins = self._pins
        if pins is None:
            keys, tables = (key,), (table,)
        elif table in pins.tables:  # identity: a table defines no ``__eq__``
            return table
        else:
            keys, tables = pins.keys + (key,), pins.tables + (table,)
        pinned = _TABLE_PINS.get(keys)
        if pinned is None:
            pinned = _TABLE_PINS[keys] = _TablePins(keys, tables)
        self._pins = pinned
        return table


def _geometry_columns(lines: "np.ndarray", geometry: WalkGeometry) -> list:
    """The five quintuple columns of the 1-D ``lines`` under ``geometry``.

    Each is a list of Python ints in ``lines`` order; an index a walker
    derives itself (its level absent or non-uniform) is a constant 0.
    """
    n_l1_sets = geometry.n_l1_sets
    n_l2_sets = geometry.n_l2_sets
    n_l15_sets = geometry.n_l15_sets
    if geometry.line_interleaved:
        home_keys = lines % geometry.n_partitions
    else:
        home_keys = lines // geometry.lines_per_page
    return [
        lines.tolist(),
        (lines % n_l1_sets).tolist() if n_l1_sets else repeat(0),
        home_keys.tolist(),
        (lines % n_l2_sets).tolist() if n_l2_sets else repeat(0),
        (lines % n_l15_sets).tolist() if n_l15_sets else repeat(0),
    ]


@dataclass(frozen=True)
class KernelLaunch:
    """One kernel invocation.

    Attributes
    ----------
    n_ctas:
        Grid size in CTAs.
    groups_per_cta:
        Warp groups per CTA (8 paper warps each).
    trace_fn:
        ``trace_fn(cta_index) -> CTATrace``; must be deterministic.
    label:
        Human-readable identifier ("kmeans.k2" etc.).
    """

    n_ctas: int
    groups_per_cta: int
    trace_fn: Callable[[int], CTATrace]
    label: str = "kernel"

    def __post_init__(self) -> None:
        if self.n_ctas <= 0:
            raise ValueError(f"n_ctas must be positive, got {self.n_ctas}")
        if self.groups_per_cta <= 0:
            raise ValueError(f"groups_per_cta must be positive, got {self.groups_per_cta}")


class TraceMemo:
    """Per-workload memo of materialized CTA traces.

    Trace functions are deterministic (same trace seed + CTA index -> same
    trace) and the engine treats traces as read-only, so one
    materialization can be handed out again and again: across kernel
    launches (iteration-structured kernels re-walk identical traces) and
    across runs (a suite simulates the same workload object on many
    systems back to back).  Trace generation — RNG streams, pattern
    synthesis, record packing — disappears from every walk but the first.

    Memory stays bounded by the workload itself: the memo holds at most
    one trace per (trace seed, CTA index) pair, i.e. the same volume of
    records the engine must materialize anyway for a single pass over the
    workload's distinct kernels.
    """

    __slots__ = ("_cache", "materializations", "reuses")

    def __init__(self) -> None:
        self._cache: dict = {}
        #: Builder invocations (cache misses) — tests assert reuse by
        #: checking this stays flat across repeated walks.
        self.materializations = 0
        #: Traces served from the memo without regeneration.
        self.reuses = 0

    def wrap(self, trace_seed: int, builder: Callable[[int], CTATrace]):
        """A memoizing ``trace_fn`` for the kernel variant ``trace_seed``."""
        cache = self._cache

        def trace_fn(cta_index: int) -> CTATrace:
            key = (trace_seed, cta_index)
            trace = cache.get(key)
            if trace is None:
                trace = builder(cta_index)
                cache[key] = trace
                self.materializations += 1
            else:
                self.reuses += 1
            return trace

        return trace_fn

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        """Drop all memoized traces (they regenerate on demand)."""
        self._cache.clear()


class Workload:
    """Base interface: a named, categorized sequence of kernel launches."""

    name: str = "workload"

    def kernels(self) -> Iterator[KernelLaunch]:
        """Yield kernel launches in program order."""
        raise NotImplementedError

    def digest(self) -> str:
        """Stable identity string for result caching."""
        raise NotImplementedError


def records_from_arrays(
    lines: Sequence[int],
    write_period: int,
    accesses_per_record: int,
    compute_cycles: float,
) -> List[TraceRecord]:
    """Pack a flat line-address sequence into :class:`TraceRecord` batches.

    Every ``write_period``-th access (1-indexed) becomes a store;
    ``write_period`` of zero means no stores.  The final partial record is
    kept (workloads rarely divide evenly).
    """
    if accesses_per_record <= 0:
        raise ValueError(f"accesses_per_record must be positive, got {accesses_per_record}")
    records: List[TraceRecord] = []
    total = len(lines)
    for start in range(0, total, accesses_per_record):
        batch = lines[start : start + accesses_per_record]
        reads: List[int] = []
        writes: List[int] = []
        for offset, line in enumerate(batch):
            position = start + offset + 1
            if write_period and position % write_period == 0:
                writes.append(int(line))
            else:
                reads.append(int(line))
        records.append(TraceRecord(compute_cycles, tuple(reads), tuple(writes)))
    return records


def write_period_from_fraction(write_fraction: float) -> int:
    """Convert a store fraction into the modular period used by traces."""
    if not 0.0 <= write_fraction < 1.0:
        raise ValueError(f"write_fraction must be in [0, 1), got {write_fraction}")
    if write_fraction == 0.0:
        return 0
    return max(1, round(1.0 / write_fraction))
