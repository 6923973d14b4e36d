"""Differential tests: one drawn trace, two trace forms, two engine paths.

Every drawn workload is built twice, CTA for CTA: once as plain
``TraceRecord`` lists (which the engine packs per launch with
``_pack_plain_trace``) and once as ``ColumnarCTATrace`` objects (whose
rows and shared plans the engine reads directly).  Both forms run on the
generated walkers and on the per-line reference (``engine.batched =
False``), and all four ``SimResult``s must be equal field for field and
clean under the result invariants.  The draws cover empty groups,
single-record CTAs, all-store records and a single-GPM machine.

Example counts scale with the loaded Hypothesis profile
(``HYPOTHESIS_PROFILE=deep``, see ``tests/conftest.py``).
"""

from dataclasses import asdict
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.presets import baseline_mcm_gpu, mcm_gpu_with_l15
from repro.sim.simulator import Simulator
from repro.validate.invariants import check_result
from repro.workloads.trace import ColumnarCTATrace, KernelLaunch, TraceRecord, Workload

MACHINES = {
    "single-gpm": lambda: baseline_mcm_gpu(n_gpms=1, sms_per_gpm=2),
    "ring-4": lambda: baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2),
    "l15-first-touch": lambda: mcm_gpu_with_l15(
        8, remote_only=False, placement="first_touch", n_gpms=2, sms_per_gpm=2
    ),
}


def examples(count: int) -> int:
    """``count``, or the loaded profile's example count when that is larger."""
    return max(count, settings.default.max_examples)


@lru_cache(maxsize=None)
def simulator(machine: str, batched: bool) -> Simulator:
    """One simulator per machine and path, reused across examples."""
    built = Simulator(MACHINES[machine]())
    built.engine.batched = batched
    return built


class DrawnWorkload(Workload):
    """Kernels over pre-built traces, one per CTA."""

    def __init__(self, name, launches) -> None:
        self.name = name
        self.launches = launches

    def kernels(self):
        for label, groups_per_cta, traces in self.launches:
            yield KernelLaunch(len(traces), groups_per_cta, traces.__getitem__, label)

    def digest(self) -> str:
        return self.name


# Per record: (loads, stores).  (0, n) is an all-store record and (0, 0)
# an access-free one; a shape with no records gives empty groups.
record_shapes = st.tuples(st.integers(0, 4), st.integers(0, 3))


@st.composite
def kernels(draw):
    """One kernel's CTAs as ``(spans, compute_cycles, rows)`` per CTA."""
    groups_per_cta = draw(st.integers(1, 3))
    shape = draw(st.lists(record_shapes, min_size=0, max_size=4))
    spans = []
    cursor = 0
    for reads, writes in shape:
        spans.append((cursor, cursor + reads, cursor + reads + writes))
        cursor += reads + writes
    n_ctas = draw(st.integers(1, 6))
    ctas = []
    for _ in range(n_ctas):
        lines = draw(
            st.lists(
                st.integers(0, 4095),
                min_size=groups_per_cta * cursor,
                max_size=groups_per_cta * cursor,
            )
        )
        rows = [lines[group * cursor : (group + 1) * cursor] for group in range(groups_per_cta)]
        cycles = draw(st.floats(min_value=0.0, max_value=32.0, allow_nan=False))
        ctas.append((tuple(spans), cycles, rows))
    return groups_per_cta, ctas


def plain_trace(spans, cycles, rows):
    return [
        [TraceRecord(cycles, tuple(row[start:mid]), tuple(row[mid:end])) for start, mid, end in spans]
        for row in rows
    ]


def columnar_trace(spans, cycles, rows):
    width = spans[-1][2] if spans else 0
    is_write = np.zeros(width, dtype=bool)
    for _, mid, end in spans:
        is_write[mid:end] = True
    addrs = np.array(rows, dtype=np.int64).reshape(len(rows), width)
    return ColumnarCTATrace(addrs, is_write, spans, cycles)


def build(drawn, make_trace) -> DrawnWorkload:
    launches = [
        (f"k{index}", groups_per_cta, [make_trace(*cta) for cta in ctas])
        for index, (groups_per_cta, ctas) in enumerate(drawn)
    ]
    return DrawnWorkload("drawn", launches)


class TestTraceFormsAndPaths:
    @settings(max_examples=examples(100), deadline=None)
    @given(
        machine=st.sampled_from(sorted(MACHINES)),
        drawn=st.lists(kernels(), min_size=1, max_size=2),
    )
    def test_plain_and_columnar_agree_on_both_paths(self, machine, drawn):
        results = {}
        for form, make_trace in (("plain", plain_trace), ("columnar", columnar_trace)):
            workload = build(drawn, make_trace)
            for batched in (True, False):
                sim = simulator(machine, batched)
                results[form, batched] = sim.run(workload)
                assert (sim.engine._walkers is not None) == batched
        reference = asdict(results["plain", False])
        for key, result in results.items():
            assert asdict(result) == reference, key
        config = MACHINES[machine]()
        assert check_result(results["columnar", True], config) == []
