"""Metamorphic properties of the timing model across config sweeps.

Individual results cannot be checked against ground truth (there is none),
but *relations between runs* can: giving the machine strictly more of a
resource, or strictly better locality, must move the headline metrics in a
known direction.  Each property here runs a small sweep over the micro
suite and asserts such a relation:

* more inter-GPM link bandwidth => non-increasing cycles;
* a larger remote-only L1.5 => non-increasing inter-GPM link bytes;
* distributed scheduling + first-touch => remote fraction no worse than
  centralized scheduling with interleave or round-robin-page placement;
* a single-GPM machine => exactly zero remote traffic;
* re-running at a fixed seed => bit-identical results.

The relations are monotone in the limit but the simulator is discrete:
changing a latency can shift CTA retirement order and hence placement, so
ratio properties carry a small documented slack (:data:`SLACK`) rather
than demanding strict monotonicity.  Sweeps execute through
:func:`repro.experiments.common.run_suites`, so they fan out over the
process pool and hit the shared result cache like any experiment, and
``run_suites`` passes every result through
:func:`~repro.validate.invariants.check_result`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from ..core.presets import baseline_mcm_gpu, mcm_gpu_with_l15, optimized_mcm_gpu
from ..experiments.common import run_suites
from ..sim.simulator import Simulator
from ..workloads.suite import all_specs
from ..workloads.synthetic import SyntheticWorkload
from ..workloads.trace import Workload

#: Relative slack for ratio-valued monotonicity properties (see module
#: docstring: discrete scheduling jitter, not model error).
SLACK = 0.02

#: Workloads the micro suite draws from: one streaming and one irregular
#: memory-intensive, one hot-set compute-intensive, one latency-bound
#: limited-parallelism — the four regimes the properties must hold in.
MICRO_SUITE_NAMES = ("Stream", "BFS", "XSBench", "DWT")


def micro_suite(n: int = 2, factor: float = 0.25) -> List[SyntheticWorkload]:
    """``n`` shrunken suite workloads (structure preserved, CTAs scaled)."""
    if not 1 <= n <= len(MICRO_SUITE_NAMES):
        raise ValueError(f"n must be in [1, {len(MICRO_SUITE_NAMES)}], got {n}")
    by_name = {spec.name: spec for spec in all_specs()}
    return [
        SyntheticWorkload(by_name[name].scaled_down(factor))
        for name in MICRO_SUITE_NAMES[:n]
    ]


@dataclass(frozen=True)
class PropertyOutcome:
    """Verdict of one metamorphic property over the micro suite."""

    name: str
    passed: bool
    detail: str


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------


def prop_bandwidth_monotonic(workloads: Sequence[Workload]) -> PropertyOutcome:
    """More inter-GPM bandwidth never makes a workload slower (within slack)."""
    bandwidths = [384.0, 768.0, 1536.0, 6144.0]
    configs = [baseline_mcm_gpu(link_bandwidth=bw) for bw in bandwidths]
    sweep = run_suites(configs, workloads)
    worst = ""
    for workload in workloads:
        name = workload.name
        cycles = [results[name].cycles for results in sweep]
        for narrow, wide, bw_narrow, bw_wide in zip(
            cycles, cycles[1:], bandwidths, bandwidths[1:]
        ):
            if wide > narrow * (1.0 + SLACK):
                worst = (
                    f"{name}: {bw_wide:.0f} GB/s ran {wide:,.0f} cycles vs "
                    f"{narrow:,.0f} at {bw_narrow:.0f} GB/s"
                )
    if worst:
        return PropertyOutcome("bandwidth-monotonic", False, worst)
    return PropertyOutcome(
        "bandwidth-monotonic",
        True,
        f"cycles non-increasing over {len(bandwidths)}-point link sweep",
    )


def prop_l15_reduces_link_bytes(workloads: Sequence[Workload]) -> PropertyOutcome:
    """A larger remote-only L1.5 never increases link traffic (within slack)."""
    configs = [
        baseline_mcm_gpu(),
        mcm_gpu_with_l15(8, remote_only=True),
        mcm_gpu_with_l15(16, remote_only=True),
    ]
    labels = ["no L1.5", "8 MB", "16 MB"]
    sweep = run_suites(configs, workloads)
    worst = ""
    for workload in workloads:
        name = workload.name
        link = [results[name].link_bytes for results in sweep]
        for smaller, larger, lo, hi in zip(link, link[1:], labels, labels[1:]):
            if larger > smaller * (1.0 + SLACK):
                worst = (
                    f"{name}: {hi} L1.5 moved {larger:,} link bytes vs "
                    f"{smaller:,} with {lo}"
                )
    if worst:
        return PropertyOutcome("l15-link-bytes", False, worst)
    return PropertyOutcome(
        "l15-link-bytes", True, "link bytes non-increasing over L1.5 capacity sweep"
    )


def prop_locality_stack(workloads: Sequence[Workload]) -> PropertyOutcome:
    """DS + FT yields a remote fraction <= centralized interleave/round-robin."""
    base = baseline_mcm_gpu()
    configs = [
        base,
        replace(base, placement="round_robin_page", name="mcm-rr-page"),
        optimized_mcm_gpu(),
    ]
    sweep = run_suites(configs, workloads)
    worst = ""
    for workload in workloads:
        name = workload.name
        optimized = sweep[2][name].remote_access_fraction
        for index, label in ((0, "interleave"), (1, "round-robin")):
            reference = sweep[index][name].remote_access_fraction
            if optimized > reference + SLACK:
                worst = (
                    f"{name}: DS+FT remote fraction {optimized:.2f} > "
                    f"centralized {label} {reference:.2f}"
                )
    if worst:
        return PropertyOutcome("locality-stack", False, worst)
    return PropertyOutcome(
        "locality-stack", True, "DS+FT remote fraction <= centralized policies"
    )


def prop_single_gpm_no_remote(workloads: Sequence[Workload]) -> PropertyOutcome:
    """A one-module machine must produce exactly zero remote traffic."""
    config = baseline_mcm_gpu(n_gpms=1, sms_per_gpm=64, name="mcm-single-gpm")
    (results,) = run_suites([config], workloads)
    for workload in workloads:
        result = results[workload.name]
        if result.page_remote or result.remote_loads or result.remote_stores:
            return PropertyOutcome(
                "single-gpm-local",
                False,
                f"{workload.name}: {result.page_remote} remote requests on one GPM",
            )
        if result.link_bytes:
            return PropertyOutcome(
                "single-gpm-local",
                False,
                f"{workload.name}: {result.link_bytes} link bytes on one GPM",
            )
    return PropertyOutcome("single-gpm-local", True, "zero remote traffic on one GPM")


def prop_deterministic(workloads: Sequence[Workload]) -> PropertyOutcome:
    """Two fresh simulators at the same seed produce bit-identical results."""
    config = optimized_mcm_gpu()
    for workload in workloads:
        first = Simulator(config).run(workload)
        second = Simulator(config).run(workload)
        if first != second:
            fields = [
                name
                for name in ("cycles", "link_bytes", "page_remote", "dram_bytes_read")
                if getattr(first, name) != getattr(second, name)
            ]
            return PropertyOutcome(
                "deterministic",
                False,
                f"{workload.name}: reruns diverge in {', '.join(fields) or 'stats'}",
            )
    return PropertyOutcome("deterministic", True, "reruns are bit-identical")


ALL_PROPERTIES = (
    prop_bandwidth_monotonic,
    prop_l15_reduces_link_bytes,
    prop_locality_stack,
    prop_single_gpm_no_remote,
    prop_deterministic,
)


def run_properties(
    workloads: Optional[Sequence[Workload]] = None,
) -> List[PropertyOutcome]:
    """Run every metamorphic property; returns one outcome per property."""
    if workloads is None:
        workloads = micro_suite()
    return [prop(workloads) for prop in ALL_PROPERTIES]
