"""Trace representation consumed by the simulation engine.

A workload is a sequence of kernel launches; a kernel launch is a CTA count
plus a function producing, for any CTA index, the memory/compute trace of
each of its warp groups.  Traces are generated deterministically (same CTA
index -> same trace), which gives iterative kernels their cross-kernel
locality for free, and on demand: a synthetic kernel's traces are built
in one batch on its first trace request (or ahead of it, for a sampled CTA
set, through :attr:`KernelLaunch.prefetch`), and
:meth:`ColumnarCTATrace.from_block` packs a whole batch's rows at once.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

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
#: as one row of line ints per group plus a shared record layout.
CTATrace = List[List[TraceRecord]]


class WalkGeometry(NamedTuple):
    """The machine property a columnar trace's record plans fold in.

    Rows carry plain line addresses, so the only machine-dependent
    quantity in a record is its issue busy time, which is divided by the
    SM ``issue_throughput``.  Machines with the same issue rate share one
    plan per trace shape, however their caches and homing differ, and
    every machine shares the rows: the generated walkers derive set
    indices and homes from the line itself, with the constants resolved
    at build time.
    """

    issue_throughput: float


class _LineTable:
    """The ``{line: line}`` table that interns every trace's addresses.

    Each trace's group rows take their ints from here, so a line that many
    CTAs and workloads touch is one int object, not one per address.  A
    dict cannot be weakly referenced, hence this holder.
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
    spans and ``is_write`` the read-only store mask; ``order`` (the
    read-only column permutation that puts each record's loads ahead of
    its stores) is set for layouts built by
    :meth:`ColumnarCTATrace.from_block`, which shares one layout between
    every trace of the same shape.  ``read_slices``/``write_slices`` cut
    each record's loads and stores out of one group's row; they and the
    per-issue-rate record plans are kept here, so they too are built once
    per shape.
    """

    __slots__ = ("spans", "is_write", "order", "read_slices", "write_slices", "_plans")

    def __init__(self, spans: Tuple[Tuple[int, int, int], ...], is_write, order=None) -> None:
        self.spans = spans
        self.is_write = is_write
        self.order = order
        self.read_slices = tuple([slice(start, mid) for start, mid, _ in spans])
        self.write_slices = tuple([slice(mid, end) for _, mid, end in spans])
        self._plans: dict = {}

    def plan(self, compute_cycles: float, issue_throughput: float) -> tuple:
        """The engine's records for one group row (memoised).

        One ``(compute_cycles, issue_busy, read_slice, write_slice)`` per
        record: slicing a group's row with the two slices gives the
        record's load and store tuples.  ``issue_busy`` is accumulated
        with the same left-to-right float arithmetic as
        ``SM.charge_issue``, so the engine's timing is bit-identical.
        Every trace of this shape, latency and issue rate gets the same
        plan object.
        """
        key = (compute_cycles, issue_throughput)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = tuple(
                [
                    (
                        compute_cycles,
                        (compute_cycles + (mid - start) + (end - mid)) / issue_throughput,
                        reads,
                        writes,
                    )
                    for (start, mid, end), reads, writes in zip(
                        self.spans, self.read_slices, self.write_slices
                    )
                ]
            )
        return plan


@lru_cache(maxsize=256)
def _flat_layout(per_group: int, write_period: int, accesses_per_record: int) -> _RecordLayout:
    """The memoised :meth:`ColumnarCTATrace.from_block` layout of one shape."""
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


class ColumnarCTATrace:
    """One CTA's trace: one row of line ints per warp group.

    The generators in :mod:`repro.workloads.patterns` produce flat int64
    address arrays; a trace keeps exactly one copy of them, as one tuple
    per group (its *row*, each record's loads ahead of its stores) of
    ints interned through the live :class:`_LineTable`, which the trace
    pins.  A line that many CTAs and workloads touch is therefore one int
    object.  The record structure is the :class:`_RecordLayout` every
    group shares, and :meth:`from_block` shares one layout between all
    traces of a shape.  Three views are derived on demand, none cached:

    * :meth:`fast_groups` — the engine's ``(plan, row)`` per group for
      one :class:`WalkGeometry`: ``plan`` is the layout's memoised
      ``(compute_cycles, issue_busy, read_slice, write_slice)`` records
      for the issue rate, shared by every trace of the shape, and ``row``
      is the group's row, shared by every issue rate.
    * :meth:`base_groups` — classic ``List[List[TraceRecord]]`` records
      for external consumers.
    * ``addrs`` / ``is_write`` — the rows as a read-only
      ``(n_groups, accesses_per_group)`` int64 array, and the store mask
      shared by all groups, whose record structure is identical.

    Rows are tuples of ints, so the cyclic collector stops tracking them
    within the first passes that see them and never rescans them in later
    full collections.
    """

    __slots__ = ("compute_cycles", "n_groups", "_rows", "_layout", "_table")

    def __init__(
        self,
        addrs: "np.ndarray",
        is_write: "np.ndarray",
        spans: Sequence[Tuple[int, int, int]],
        compute_cycles: float,
    ) -> None:
        self.compute_cycles = compute_cycles
        self.n_groups = addrs.shape[0]
        self._layout = _RecordLayout(tuple(map(tuple, spans)), is_write)
        self._table = table = _line_table()
        intern = table.ints.setdefault
        self._rows = tuple([tuple(map(intern, row, row)) for row in addrs.tolist()])

    @classmethod
    def from_block(
        cls,
        block: "np.ndarray",
        write_period: int,
        accesses_per_record: int,
        compute_cycles: float,
    ) -> List["ColumnarCTATrace"]:
        """One trace per CTA of an int64 ``(n, n_groups, per_group)`` block.

        ``block[i]`` is CTA ``i``'s stream split into its equal-length
        groups.  Every ``write_period``-th access (1-indexed within its
        group) is a store, records batch ``accesses_per_record`` accesses
        with the partial tail kept, and loads keep their relative order
        ahead of stores within a record, as ``records_from_arrays`` packs
        each group.  The layout depends only on the group length,
        ``write_period`` and ``accesses_per_record``, so traces of one
        shape share it (and its read-only ``is_write``).  The layout's
        column order is applied, the block converted to ints and the rows
        interned once for all ``n`` traces.
        """
        if accesses_per_record <= 0:
            raise ValueError(
                f"accesses_per_record must be positive, got {accesses_per_record}"
            )
        n, n_groups, per_group = block.shape
        layout = _flat_layout(per_group, write_period, accesses_per_record)
        table = _line_table()
        intern = table.ints.setdefault
        ordered = block[:, :, layout.order].reshape(n * n_groups, per_group)
        rows = [tuple(map(intern, row, row)) for row in ordered.tolist()]
        traces = []
        for first in range(0, n * n_groups, n_groups):
            trace = cls.__new__(cls)
            trace.compute_cycles = compute_cycles
            trace.n_groups = n_groups
            trace._layout = layout
            trace._table = table
            trace._rows = tuple(rows[first : first + n_groups])
            traces.append(trace)
        return traces

    @classmethod
    def from_flat(
        cls,
        lines: "np.ndarray",
        n_groups: int,
        write_period: int,
        accesses_per_record: int,
        compute_cycles: float,
    ) -> "ColumnarCTATrace":
        """Build one CTA's trace from its flat address stream (see :meth:`from_block`).

        ``lines`` is split into ``n_groups`` equal groups.  Any int array
        or sequence is taken in C order as int64 (no copy when it already
        conforms), so third-party patterns may emit lists or narrower
        dtypes.
        """
        if n_groups <= 0:
            raise ValueError(f"n_groups must be positive, got {n_groups}")
        flat = np.asarray(lines, dtype=np.int64)
        per_group, leftover = divmod(flat.size, n_groups)
        if leftover:
            raise ValueError(
                f"{flat.size} accesses do not divide into {n_groups} equal groups"
            )
        (trace,) = cls.from_block(
            flat.reshape(1, n_groups, per_group),
            write_period,
            accesses_per_record,
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

    @property
    def is_write(self) -> "np.ndarray":
        """The per-position store mask every group shares."""
        return self._layout.is_write

    @property
    def addrs(self) -> "np.ndarray":
        """The rows as a read-only ``(n_groups, accesses_per_group)`` int64 array.

        Built on every access from the rows, for exporters and tests; the
        engine never reads it.
        """
        spans = self._layout.spans
        addrs = np.array(self._rows, dtype=np.int64).reshape(
            self.n_groups, spans[-1][2] if spans else 0
        )
        addrs.flags.writeable = False
        return addrs

    def __len__(self) -> int:
        return self.n_groups

    def __iter__(self):
        return iter(self.base_groups())

    def __getitem__(self, index):
        return self.base_groups()[index]

    def base_groups(self) -> CTATrace:
        """The classic ``TraceRecord`` view, built from the rows per call.

        Its read and write tuples are slices of the rows, so they hold
        the rows' interned ints.
        """
        layout = self._layout
        # ``tuple.__new__(TraceRecord, fields)`` is what the named tuple's
        # own constructor calls, minus a Python frame.
        return [
            list(
                map(
                    tuple.__new__,
                    repeat(TraceRecord),
                    zip(
                        repeat(self.compute_cycles),
                        map(row.__getitem__, layout.read_slices),
                        map(row.__getitem__, layout.write_slices),
                    ),
                )
            )
            for row in self._rows
        ]

    def fast_groups(self, geometry: WalkGeometry) -> List[Tuple[tuple, tuple]]:
        """The engine's ``(plan, row)`` per group for ``geometry``'s issue rate.

        ``plan`` is :meth:`_RecordLayout.plan` for this trace's latency and
        the issue rate, one object for every trace of the shape; ``row``
        is the group's row, one object for every issue rate.  Record ``i``
        of a group reads ``row[plan[i][2]]`` and writes
        ``row[plan[i][3]]``.
        """
        return list(
            zip(
                repeat(self._layout.plan(self.compute_cycles, geometry.issue_throughput)),
                self._rows,
            )
        )


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
    prefetch:
        Optional ``prefetch(ctas)``: build those CTAs' traces as one batch
        before ``trace_fn`` hands them out.
    """

    n_ctas: int
    groups_per_cta: int
    trace_fn: Callable[[int], CTATrace]
    label: str = "kernel"
    #: ``prefetch(ctas)`` builds the traces of a CTA set in one batch, for
    #: a consumer that reads only those CTAs; None when the kernel's
    #: traces are not built in batches.
    prefetch: Optional[Callable[[Sequence[int]], None]] = None

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
    synthesis, row interning — disappears from every walk but the first.

    Traces are built a batch at a time: every consumer but the sampling
    profiler walks every CTA of a kernel, so the first miss builds the
    whole kernel, and ``prefetch`` builds just a sampled CTA set.  Built
    traces wait in a second map until their first hand-out.

    Memory stays bounded by the workload itself: the memo holds at most
    one trace per (trace seed, CTA index) pair, i.e. the same volume of
    records the engine must materialize anyway for a single pass over the
    workload's distinct kernels.
    """

    __slots__ = ("_cache", "_built", "materializations", "reuses")

    def __init__(self) -> None:
        self._cache: dict = {}
        #: Traces built in a batch but not yet handed out.
        self._built: dict = {}
        #: First hand-outs of built traces — tests assert reuse by
        #: checking this stays flat across repeated walks.
        self.materializations = 0
        #: Traces served from the memo again.
        self.reuses = 0

    def wrap(
        self,
        trace_seed: int,
        n_ctas: int,
        build: Callable[[Sequence[int]], Iterable[Tuple[int, CTATrace]]],
    ):
        """``(trace_fn, prefetch)`` for the kernel variant ``trace_seed``.

        ``build(ctas)`` yields ``(cta, trace)`` for every CTA of ``ctas``.
        ``trace_fn(cta)`` memoizes, building all ``n_ctas`` CTAs not yet
        built on its first miss; ``prefetch(ctas)`` builds the ones of
        ``ctas`` not yet built.
        """
        cache = self._cache
        built = self._built

        def prefetch(ctas: Sequence[int]) -> None:
            missing = [
                cta
                for cta in dict.fromkeys(ctas)
                if (trace_seed, cta) not in cache and (trace_seed, cta) not in built
            ]
            if missing:
                built.update(((trace_seed, cta), trace) for cta, trace in build(missing))

        def trace_fn(cta_index: int) -> CTATrace:
            key = (trace_seed, cta_index)
            trace = cache.get(key)
            if trace is not None:
                self.reuses += 1
                return trace
            trace = built.pop(key, None)
            if trace is None:
                if not 0 <= cta_index < n_ctas:
                    raise IndexError(f"CTA {cta_index} outside a {n_ctas}-CTA kernel")
                prefetch(range(n_ctas))
                trace = built.pop(key)
            cache[key] = trace
            self.materializations += 1
            return trace

        return trace_fn, prefetch


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
