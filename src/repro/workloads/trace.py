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
    """The machine property a columnar trace's fast records fold in.

    Records carry plain line addresses, so the only machine-dependent
    quantity in them is each record's issue busy time, which is divided by
    the SM ``issue_throughput``.  Machines with the same issue rate share
    one set of fast records per trace, however their caches and homing
    differ: the generated walkers derive set indices and homes from the
    line itself, with the constants resolved at build time.
    """

    issue_throughput: float


class _LineTable:
    """The ``{line: line}`` table that interns every trace's addresses.

    Each record's read and write tuples take their ints from here, so a
    line that many CTAs and workloads touch is one int object, not one per
    address.  A dict cannot be weakly referenced, hence this holder.
    :data:`_LINE_TABLE` refers to the live table weakly and every trace
    built from it holds it strongly, so the table lives exactly as long as
    some such trace: a strong process-wide table would keep every line a
    pool worker ever saw for the worker's whole life.
    """

    __slots__ = ("ints", "__weakref__")

    def __init__(self) -> None:
        self.ints: dict = {}


#: Weak reference to the live :class:`_LineTable` (None before the first).
_LINE_TABLE = None


def _line_table() -> _LineTable:
    """The live line table, made anew once no trace holds the last one."""
    global _LINE_TABLE
    table = _LINE_TABLE() if _LINE_TABLE is not None else None
    if table is None:
        table = _LineTable()
        _LINE_TABLE = weakref.ref(table)
    return table


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
_FAST_READS = itemgetter(2)
_FAST_WRITES = itemgetter(3)


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
      for external consumers (cached).
    * :meth:`fast_groups` — the engine's ``(compute_cycles, issue_busy,
      reads, writes)`` records for one :class:`WalkGeometry`, i.e. one
      issue rate.  Cached per issue rate (benchmark harnesses interleave
      several configurations over the same memoized traces, so a one-slot
      cache would thrash and rebuild on every config switch).

    Both views hold the same read and write tuples of plain line ints,
    built once per trace: the first view interns the addresses through the
    live :class:`_LineTable` (which the trace then pins), so a line that
    many CTAs and workloads touch is one int, and a later view takes the
    tuples from the earlier one's records.

    Records are built with a few C-level passes per group: a row's ints
    are cut into records by ``map``/``zip`` over the layout's slice
    tables.  Fast groups and records are plain tuples of numbers, built one
    tree level at a time, so the cyclic collector stops tracking a trace's
    records within the first passes that see them (about one level per
    pass) and never rescans them in later full collections; with list
    groups every trace stayed tracked for its whole life.
    """

    __slots__ = (
        "addrs",
        "is_write",
        "compute_cycles",
        "n_groups",
        "_layout",
        "_base",
        "_fast",
        "_table",
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
        self._table: _LineTable = None

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

    def _fields(self) -> Tuple[list, list]:
        """Every record's read tuple and write tuple, group-major.

        Taken from a view built earlier when there is one, so every view
        shares one set of tuples.  Otherwise each address is interned
        through the live line table, and each group's row (a tuple slice
        of the interned addresses) is cut into records by the layout's
        slice tables (a tuple's slice is again a tuple).
        """
        if self._base is not None:
            records = list(chain.from_iterable(self._base))
            return list(map(_READS, records)), list(map(_WRITES, records))
        if self._fast:
            records = list(chain.from_iterable(next(iter(self._fast.values()))))
            return list(map(_FAST_READS, records)), list(map(_FAST_WRITES, records))
        self._table = table = _line_table()
        lines = self.addrs.ravel().tolist()
        flat = tuple(map(table.ints.setdefault, lines, lines))
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
            reads, writes = self._fields()
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
        """The engine's records for ``geometry``'s issue rate (cached per rate).

        Records are ``(compute_cycles, issue_busy, reads, writes)`` with
        the plain line tuples :meth:`base_groups` shares, so every machine
        with the same ``issue_throughput`` gets the same groups object.
        ``issue_busy`` is accumulated with the same left-to-right float
        arithmetic as ``SM.charge_issue`` so the engine's timing is
        bit-identical.  Groups and records are tuples.
        """
        throughput = geometry.issue_throughput
        cache = self._fast
        if cache is None:
            cache = self._fast = {}
        else:
            cached = cache.get(throughput)
            if cached is not None:
                return cached
        reads, writes = self._fields()
        compute_cycles = self.compute_cycles
        busys = [
            (compute_cycles + (mid - start) + (end - mid)) / throughput
            for start, mid, end in self._layout.spans
        ]
        # Each level of the tree is finished before the next one starts
        # (read/write tuples, then records, then groups), so a young
        # collection mostly finds children in an older generation, already
        # untracked, and untracks the parents it scans.  A tuple copied
        # from a finished list is allocated after its items;
        # ``tuple(zip(...))`` would allocate it first and grow it.
        records = tuple(
            list(zip(repeat(compute_cycles), busys * self.n_groups, reads, writes))
        )
        groups = tuple(self._split(records))
        cache[throughput] = groups
        return groups


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
