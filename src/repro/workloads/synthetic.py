"""Synthetic workload construction from a declarative specification.

A :class:`WorkloadSpec` captures the knobs that determine how a GPU
application exercises an MCM-GPU memory system: grid size (parallelism),
access pattern and footprint (locality and cacheability), compute density
(bandwidth sensitivity), store ratio (write-back pressure), kernel
iteration count (cross-kernel reuse), and per-CTA work imbalance (the
distributed scheduler's weak spot).  :class:`SyntheticWorkload` turns a
spec into the deterministic kernel-launch traces the engine consumes,
built a kernel (or a sampled CTA set) at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterator, Optional, Sequence

import numpy as np

from .patterns import AccessPattern, make_pattern
from .rng import kernel_streams
from .trace import (
    ColumnarCTATrace,
    KernelLaunch,
    TraceMemo,
    Workload,
    write_period_from_fraction,
)


class Category(Enum):
    """The paper's three workload categories (Section 4)."""

    M_INTENSIVE = "M-Intensive"
    C_INTENSIVE = "C-Intensive"
    LIMITED_PARALLELISM = "Limited Parallelism"

    @property
    def high_parallelism(self) -> bool:
        """True for the 33 workloads that fill a 256-SM GPU."""
        return self is not Category.LIMITED_PARALLELISM


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of one synthetic benchmark.

    ``footprint_bytes`` is the *scaled* footprint used in simulation;
    ``paper_footprint_mb`` preserves the full-scale figure from Table 4 for
    reporting.
    """

    name: str
    category: Category
    pattern: str
    suite: str = "synthetic"
    pattern_params: tuple = ()
    n_ctas: int = 1536
    groups_per_cta: int = 2
    records_per_group: int = 8
    accesses_per_record: int = 4
    write_fraction: float = 0.2
    compute_per_record: float = 8.0
    kernel_iterations: int = 2
    footprint_bytes: int = 4 << 20
    line_bytes: int = 128
    paper_footprint_mb: Optional[float] = None
    #: Linear work skew across CTA indices: CTA ``i`` gets
    #: ``1 + imbalance * i / n_ctas`` times the base record count.
    imbalance: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_ctas <= 0:
            raise ValueError(f"{self.name}: n_ctas must be positive")
        if self.footprint_bytes < self.line_bytes:
            raise ValueError(f"{self.name}: footprint smaller than one line")
        if self.kernel_iterations <= 0:
            raise ValueError(f"{self.name}: kernel_iterations must be positive")
        if self.imbalance < 0:
            raise ValueError(f"{self.name}: imbalance must be non-negative")

    @property
    def footprint_lines(self) -> int:
        """Footprint in cache lines."""
        return max(1, self.footprint_bytes // self.line_bytes)

    def build_pattern(self) -> AccessPattern:
        """Instantiate this spec's access pattern."""
        return make_pattern(self.pattern, **dict(self.pattern_params))

    def records_for_cta(self, cta_index: int) -> int:
        """Record count per warp group for ``cta_index`` (with skew)."""
        skew = 1.0 + self.imbalance * cta_index / self.n_ctas
        return max(1, round(self.records_per_group * skew))

    def total_accesses(self) -> int:
        """Approximate total memory accesses over all kernels (for sizing)."""
        if self.imbalance:
            records = sum(self.records_for_cta(cta) for cta in range(self.n_ctas))
        else:  # every CTA has CTA 0's record count
            records = self.n_ctas * self.records_for_cta(0)
        return records * self.groups_per_cta * self.accesses_per_record * self.kernel_iterations

    def digest(self) -> str:
        """Stable identity string for result caching."""
        params = ",".join(f"{key}={value}" for key, value in self.pattern_params)
        return (
            f"{self.name}|{self.category.value}|{self.pattern}({params})"
            f"|ctas:{self.n_ctas}x{self.groups_per_cta}x{self.records_per_group}"
            f"x{self.accesses_per_record}|wf:{self.write_fraction}"
            f"|cpr:{self.compute_per_record}|iters:{self.kernel_iterations}"
            f"|fp:{self.footprint_bytes}|imb:{self.imbalance}|seed:{self.seed}"
        )

    def scaled_down(self, factor: float) -> "WorkloadSpec":
        """A smaller copy for fast tests: fewer CTAs, same structure."""
        if factor <= 0 or factor > 1:
            raise ValueError(f"factor must be in (0, 1], got {factor}")
        return replace(
            self,
            n_ctas=max(8, int(self.n_ctas * factor)),
            footprint_bytes=max(self.line_bytes * 64, int(self.footprint_bytes * factor)),
        )


class SyntheticWorkload(Workload):
    """A runnable workload generated from a :class:`WorkloadSpec`."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self.name = spec.name
        self._pattern = spec.build_pattern()
        self._write_period = write_period_from_fraction(spec.write_fraction)
        # Materialized CTA traces, shared across kernel launches and runs
        # (traces are deterministic and the engine never mutates them).
        self._trace_memo = TraceMemo()

    @property
    def category(self) -> Category:
        """The spec's workload category."""
        return self.spec.category

    def kernels(self) -> Iterator[KernelLaunch]:
        for kernel_index in range(self.spec.kernel_iterations):
            trace_fn, prefetch = self._trace_builder(kernel_index)
            yield KernelLaunch(
                n_ctas=self.spec.n_ctas,
                groups_per_cta=self.spec.groups_per_cta,
                trace_fn=trace_fn,
                label=f"{self.name}.k{kernel_index}",
                prefetch=prefetch,
            )

    def _trace_builder(self, kernel_index: int):
        spec = self.spec
        pattern = self._pattern
        write_period = self._write_period
        # Patterns that move between launches see the kernel index in the
        # seed; iterative patterns reproduce the same stream each launch —
        # and hit the trace memo instead of regenerating (for them every
        # launch shares the seed-0 materialization).  Phase-structured
        # patterns (``kernel_indexed``) receive the kernel index as an
        # argument and are memoized per launch position like variants.
        kernel_indexed = pattern.kernel_indexed
        seed_kernel = (
            kernel_index if (pattern.kernel_variant or kernel_indexed) else 0
        )
        extra = {"kernel_index": kernel_index} if kernel_indexed else {}
        # Seeded on a batch's first draw: patterns that draw nothing seed
        # nothing and build no generator.
        streams_of = kernel_streams(spec.name, spec.seed, seed_kernel, n_ctas=spec.n_ctas)

        def build(ctas: Sequence[int]):
            # One pattern call and one block of traces per access count:
            # with ``imbalance`` the CTAs' record counts differ.
            if spec.imbalance:
                by_records: dict = {}
                for cta in ctas:
                    by_records.setdefault(spec.records_for_cta(cta), []).append(cta)
            else:
                by_records = {spec.records_for_cta(0): ctas}
            for records_per_group, group in by_records.items():
                group = np.asarray(group, dtype=np.int64)
                per_group = records_per_group * spec.accesses_per_record
                lines = pattern.generate_batch(
                    group,
                    spec.n_ctas,
                    per_group * spec.groups_per_cta,
                    spec.footprint_lines,
                    streams_of(group),
                    **extra,
                )
                block = np.asarray(lines, dtype=np.int64).reshape(
                    len(group), spec.groups_per_cta, per_group
                )
                yield from zip(
                    group.tolist(),
                    ColumnarCTATrace.from_block(
                        block, write_period, spec.accesses_per_record, spec.compute_per_record
                    ),
                )

        return self._trace_memo.wrap(seed_kernel, spec.n_ctas, build)

    def digest(self) -> str:
        return self.spec.digest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SyntheticWorkload({self.spec.name!r}, {self.spec.category.value})"
