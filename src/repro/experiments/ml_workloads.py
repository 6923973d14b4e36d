"""ML-era workload study: the paper's mechanisms on modern ML traffic.

Runs the post-2017 ML suite (:func:`repro.workloads.suite.ml_specs`: GEMM
tiling, attention, ring allreduce, Zipfian embedding gathers, bursty MoE
dispatch) on the baseline, 16 MB remote-only L1.5 and optimized MCM-GPUs
and reports each workload's speedups beside its static characterization;
:mod:`~repro.experiments.ml_verdicts` sets them beside the 2017 suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..analysis.report import format_table
from ..analysis.speedup import speedups
from ..core.presets import baseline_mcm_gpu, mcm_gpu_with_l15, optimized_mcm_gpu
from ..workloads.characterize import cached_profile
from ..workloads.suite import ml_workloads
from .common import ExperimentPlan


def machines():
    """The study's machines: baseline, 16 MB remote-only L1.5, optimized."""
    return [baseline_mcm_gpu(), mcm_gpu_with_l15(16, remote_only=True), optimized_mcm_gpu()]


@dataclass(frozen=True)
class MLStudy:
    """Results of the ML-era study."""

    #: Per-ML-workload speedups: name -> (l15, optimized).
    per_workload: Dict[str, Tuple[float, float]]
    #: Static characterization rows: name -> (hot concentration,
    #: shared-line fraction, store fraction).
    characterization: Dict[str, Tuple[float, float, float]]
    ml_improved: int
    ml_degraded: int
    ml_total: int
    #: Baseline inter-GPM link bytes per trace record of AllReduce-Ring
    #: (0.0 when the suite lacks it): the ring exchange's traffic signature.
    allreduce_link_per_record: float


def plan(fast_factor=None) -> ExperimentPlan:
    """The ML suite on the study's three machines.

    ``fast_factor`` scales every workload down (tests, CI smoke); the
    published study runs at full scale.
    """
    ml_suite = ml_workloads(fast_factor=fast_factor)

    def reduce(suites) -> MLStudy:
        base_ml, l15_ml, opt_ml = suites
        opt_speedups_ml = speedups(opt_ml, base_ml)
        l15_per = speedups(l15_ml, base_ml)
        per_workload = {
            name: (l15_per.get(name, float("nan")), opt_speedups_ml.get(name, float("nan")))
            for name in (w.name for w in ml_suite)
        }
        allreduce = base_ml.get("AllReduce-Ring")
        characterization = {}
        for workload in ml_suite:
            profile = cached_profile(workload)
            characterization[workload.name] = (
                profile.hot_concentration,
                profile.shared_line_fraction,
                profile.store_fraction,
            )
        return MLStudy(
            per_workload=per_workload,
            characterization=characterization,
            ml_improved=sum(1 for v in opt_speedups_ml.values() if v > 1.001),
            ml_degraded=sum(1 for v in opt_speedups_ml.values() if v < 0.999),
            ml_total=len(opt_speedups_ml),
            allreduce_link_per_record=(
                allreduce.link_bytes / max(allreduce.records, 1) if allreduce else 0.0
            ),
        )

    return ExperimentPlan([(config, ml_suite) for config in machines()], reduce)


def report(study: MLStudy) -> str:
    """Render the ML-era study: per-workload table + improved count."""
    headers = ["Workload", "L1.5 16MB", "Optimized", "Hot10%", "Shared", "Stores"]
    rows: List[List[object]] = []
    for name, (l15, opt) in study.per_workload.items():
        hot, shared, store = study.characterization.get(name, (0.0, 0.0, 0.0))
        rows.append([name, l15, opt, hot, shared, store])
    table = format_table(
        headers,
        rows,
        title="ML-era workloads: speedups over baseline MCM-GPU + characterization",
    )
    return (
        f"{table}\n\noptimized build on ML suite: {study.ml_improved} improved / "
        f"{study.ml_degraded} degraded of {study.ml_total}"
    )
